//! `wcet` — the command-line front end of the analyzer.
//!
//! ```text
//! wcet <program.s> [options]     analyze an assembly program
//!   --annotations <file>         design-level annotation file (§4.3)
//!   --isa <name>                 instruction-set backend: `house` (the
//!                                default) or `rv32i`; assembly, timing
//!                                model, and the artifact-cache key space
//!                                all follow the selection
//!   --caches                     enable the i/d-cache machine model
//!   --unroll                     virtually unroll loops (context expansion)
//!   --context-depth <k>          analyze one unit per (function, call-string
//!                                of length ≤ k) — VIVU-style context
//!                                sensitivity; default 0 = merged analysis
//!   --persistence                per-context cache persistence analysis:
//!                                callee footprint summaries at calls and
//!                                first-miss classification (one miss per
//!                                activation); needs --caches
//!   --pipeline                   abstract in-order pipeline timing with
//!                                static BTFNT branch prediction: block
//!                                costs become retirement deltas over
//!                                bounded residual-latency states and
//!                                mispredicted edges are charged in the
//!                                ILP; with --run the simulated machine
//!                                overlaps stages the same way
//!   --threads <n>                analysis worker threads (default: all
//!                                cores; 1 = sequential; same report either way)
//!   --cache-dir <dir>            persistent artifact cache: unchanged
//!                                functions replay cached analysis results
//!                                (hit statistics go to stderr; stdout is
//!                                byte-identical to an uncached run)
//!   --disasm                     print the disassembly listing
//!   --check-only                 run only the MISRA guideline checker
//!   --run                        also execute and report observed cycles
//! wcet batch <manifest> [opts]   analyze a stream of requests against a
//!                                shared cache; manifest lines are
//!                                `<program.s> [annotations-file]
//!                                [--isa <name>]` (the per-request ISA
//!                                defaults to the CLI-level selector); a
//!                                failing request is reported and skipped,
//!                                and the exit code reflects the failures
//! wcet serve <socket> [opts]     long-lived analysis daemon on a Unix
//!                                socket (or --stdio): batch-manifest
//!                                request lines in, length-prefixed report
//!                                frames out, `@shutdown` to stop
//!   --workers <n>                persistent worker-pool size shared by
//!                                every request (default: all cores)
//!   --max-cache-bytes <size>     GC watermark: when the --cache-dir store
//!                                grows past this, evict LRU artifacts
//!                                (suffixes k/m/g are binary units)
//! wcet gc --cache-dir <dir>      sweep stale temp files and, with
//!        [--max-bytes <size>]    --max-bytes, evict LRU artifacts until
//!                                the store fits under the watermark
//! wcet fuzz [--programs N]       differential fuzzing: generate N random
//!           [--seed S]           programs per ISA (deterministic in S),
//!           [--isa <name>]       check interpreter-observed cycles against
//!                                the analyzer's [BCET, WCET] across the
//!                                whole config matrix, and shrink the first
//!                                violation to a minimal reproducer;
//!                                default: both ISAs
//! wcet --table1 [samples]        regenerate the paper's Table 1
//! wcet --experiments             regenerate every experiment (E1–E16)
//! ```

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use wcet_predictability::core::analyzer::{AnalysisReport, AnalyzerConfig, WcetAnalyzer};
use wcet_predictability::core::experiments;
use wcet_predictability::core::fuzz;
use wcet_predictability::core::incr::{config_fingerprint, ArtifactCache};
use wcet_predictability::core::parallel::{worker_count, WorkerPool};
use wcet_predictability::core::serve::{self, AnalysisService};
use wcet_predictability::guidelines::annot::AnnotationSet;
use wcet_predictability::isa::asm::assemble_for;
use wcet_predictability::isa::disasm::disassemble;
use wcet_predictability::isa::interp::{Interpreter, MachineConfig};
use wcet_predictability::isa::{Image, IsaKind};
use wcet_predictability::render;

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("wcet: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Options shared by the single-image, batch, serve, and gc front ends.
#[derive(Default, Clone)]
struct CliOptions {
    annot_path: Option<String>,
    caches: bool,
    unroll: bool,
    show_disasm: bool,
    check_only: bool,
    also_run: bool,
    parallelism: Option<usize>,
    cache_dir: Option<String>,
    context_depth: usize,
    persistence: bool,
    pipeline: bool,
    /// Instruction-set backend; `--isa rv32i` switches assembly,
    /// timing, and the cache key space. Per-request manifest/serve
    /// overrides start from this default.
    isa: IsaKind,
    /// Serve: persistent worker-pool size (falls back to --threads).
    workers: Option<usize>,
    /// Serve/gc: cache-store size watermark triggering LRU eviction.
    max_cache_bytes: Option<u64>,
    /// Serve: speak the frame protocol on stdin/stdout, no socket.
    stdio: bool,
}

impl CliOptions {
    /// These options with a per-request ISA override applied (batch
    /// manifest lines and serve requests may carry `--isa <name>`);
    /// `None` keeps the CLI-level selector.
    fn for_request(&self, isa: Option<IsaKind>) -> CliOptions {
        CliOptions {
            isa: isa.unwrap_or(self.isa),
            ..self.clone()
        }
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print_usage();
        return Ok(());
    }

    if args[0] == "--table1" {
        let samples: u64 = args
            .get(1)
            .map(|s| s.parse().map_err(|_| format!("invalid sample count `{s}`")))
            .transpose()?
            .unwrap_or(10_000_000);
        let e = experiments::e1_table1(samples);
        println!("{e}");
        return Ok(());
    }

    if args[0] == "--experiments" {
        for e in experiments::run_all(1_000_000) {
            println!("{e}\n");
        }
        return Ok(());
    }

    if args[0] == "batch" {
        let (opts, files) = parse_options(&args[1..])?;
        let manifest = match files.as_slice() {
            [one] => one.clone(),
            [] => return Err("batch mode needs a manifest file".to_owned()),
            _ => return Err("batch mode takes exactly one manifest file".to_owned()),
        };
        return run_batch(&manifest, &opts);
    }

    if args[0] == "serve" {
        return run_serve(&args[1..]);
    }

    if args[0] == "gc" {
        return run_gc(&args[1..]);
    }

    if args[0] == "fuzz" {
        return run_fuzz(&args[1..]);
    }

    if args[0] == "fuzz-lp" {
        return run_fuzz_lp(&args[1..]);
    }

    // Single-image analyze mode.
    let (opts, files) = parse_options(&args)?;
    let source_path = match files.as_slice() {
        [one] => one.clone(),
        [] => return Err("no program file given".to_owned()),
        _ => return Err("more than one program file given".to_owned()),
    };
    let image = load_image(&source_path, opts.isa)?;
    let annotations = load_annotations(opts.annot_path.as_deref())?;

    if opts.show_disasm {
        println!("── disassembly ──");
        println!("{}", disassemble(&image).map_err(|e| e.to_string())?);
    }

    let mut cache = open_cache(opts.cache_dir.as_deref())?;
    let (report, machine) = analyze_one(&image, annotations, &opts, cache.as_mut(), None)?;
    if let Some(stats) = &report.incr {
        eprintln!("wcet: {stats}{}", lp_stats_suffix(&report));
    }

    print!("{}", compose_report(&image, &report, opts.check_only));
    if opts.check_only && report.guidelines.is_some() {
        return Ok(());
    }

    if opts.also_run {
        let mut interp = Interpreter::with_config(&image, machine);
        let outcome = interp
            .run(100_000_000)
            .map_err(|e| format!("execution: {e}"))?;
        println!();
        println!(
            "observed execution: {} cycles ({} instructions) — within bounds: {}",
            outcome.cycles,
            outcome.instructions,
            outcome.cycles <= report.wcet_cycles && outcome.cycles >= report.bcet_cycles
        );
    }
    Ok(())
}

/// Analyzes a manifest of `<program.s> [annotations] [--isa <name>]`
/// requests against a shared artifact cache — the service-shaped entry point: most requests
/// in a stream are small deltas, and the cache turns them into replays.
///
/// Failures are isolated per request: a bad path, unparseable image, or
/// malformed annotation file is reported on stderr and the stream
/// continues — one poison request cannot abort a certification batch.
/// The exit code still reflects them: any failed request turns the whole
/// run into an error carrying the failure count.
fn run_batch(manifest_path: &str, opts: &CliOptions) -> Result<(), String> {
    let manifest = std::fs::read_to_string(manifest_path)
        .map_err(|e| format!("cannot read {manifest_path}: {e}"))?;
    let manifest_dir = std::path::Path::new(manifest_path)
        .parent()
        .map(std::path::Path::to_path_buf)
        .unwrap_or_default();
    let mut cache = open_cache(opts.cache_dir.as_deref())?;
    // One persistent pool for the whole stream — every request's
    // per-function fan-outs share it instead of spawning fresh threads.
    let pool = Arc::new(WorkerPool::new(worker_count(
        opts.workers.or(opts.parallelism),
    )));

    let mut requests = 0usize;
    let mut failures = 0usize;
    let mut total_fn_hits = 0usize;
    let mut total_fns = 0usize;
    for (idx, raw) in manifest.lines().enumerate() {
        let mut outcome = || -> Result<(), String> {
            // Manifest lines share the serve request grammar, so batch
            // and serve can never drift apart on `--isa` or comments.
            let (program, annot, isa) = match serve::parse_request_line(raw) {
                serve::RequestLine::Empty => return Ok(()),
                serve::RequestLine::Shutdown => {
                    return Err("`@shutdown` is a serve control line, not a batch request".into())
                }
                serve::RequestLine::Malformed { message } => return Err(message),
                serve::RequestLine::Analyze {
                    program,
                    annotations,
                    isa,
                } => (program, annotations, isa),
            };
            // Paths resolve relative to the manifest, so a request file
            // can ship next to its programs.
            let resolve = |p: &std::path::Path| {
                if p.is_absolute() || manifest_dir.as_os_str().is_empty() {
                    p.to_string_lossy().into_owned()
                } else {
                    manifest_dir.join(p).to_string_lossy().into_owned()
                }
            };
            let program = resolve(&program);
            let annot = annot.as_deref().map(resolve);

            let request_opts = opts.for_request(isa);
            let image = load_image(&program, request_opts.isa)?;
            let annotations = load_annotations(annot.as_deref())?;
            let (report, _) = analyze_one(
                &image,
                annotations,
                &request_opts,
                cache.as_mut(),
                Some(&pool),
            )?;

            requests += 1;
            println!("── batch: {program} ──");
            print!("{}", render::render_report(&image, &report));
            println!();
            if let Some(stats) = &report.incr {
                eprintln!("wcet: {program}: {stats}{}", lp_stats_suffix(&report));
                total_fn_hits += stats.fn_hits;
                total_fns += stats.functions;
            }
            Ok(())
        };
        if let Err(error) = outcome() {
            failures += 1;
            eprintln!("wcet: {manifest_path}:{}: {error}", idx + 1);
        }
    }
    if requests == 0 && failures == 0 {
        return Err(format!("{manifest_path}: no requests in manifest"));
    }
    if opts.cache_dir.is_some() {
        eprintln!(
            "wcet: batch done: {requests} request(s), {total_fn_hits}/{total_fns} \
             function artifact(s) served from cache"
        );
    }
    if failures > 0 {
        return Err(format!(
            "batch: {failures} of {} request(s) failed",
            requests + failures
        ));
    }
    Ok(())
}

fn parse_options(args: &[String]) -> Result<(CliOptions, Vec<String>), String> {
    let mut opts = CliOptions::default();
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--annotations" => {
                opts.annot_path = Some(
                    it.next()
                        .ok_or_else(|| "--annotations needs a file".to_owned())?
                        .clone(),
                );
            }
            "--threads" => {
                let raw = it
                    .next()
                    .ok_or_else(|| "--threads needs a count".to_owned())?;
                let n: usize = raw
                    .parse()
                    .map_err(|_| format!("invalid thread count `{raw}`"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_owned());
                }
                opts.parallelism = Some(n);
            }
            "--isa" => {
                let raw = it.next().ok_or_else(|| "--isa needs a name".to_owned())?;
                opts.isa = IsaKind::parse(raw).ok_or_else(|| {
                    format!("unknown ISA `{raw}` (expected one of: house, rv32i)")
                })?;
            }
            "--cache-dir" => {
                opts.cache_dir = Some(
                    it.next()
                        .ok_or_else(|| "--cache-dir needs a directory".to_owned())?
                        .clone(),
                );
            }
            "--context-depth" => {
                let raw = it
                    .next()
                    .ok_or_else(|| "--context-depth needs a depth".to_owned())?;
                opts.context_depth = raw
                    .parse()
                    .map_err(|_| format!("invalid context depth `{raw}`"))?;
            }
            "--workers" => {
                let raw = it
                    .next()
                    .ok_or_else(|| "--workers needs a count".to_owned())?;
                let n: usize = raw
                    .parse()
                    .map_err(|_| format!("invalid worker count `{raw}`"))?;
                if n == 0 {
                    return Err("--workers must be at least 1".to_owned());
                }
                opts.workers = Some(n);
            }
            "--max-cache-bytes" | "--max-bytes" => {
                let raw = it.next().ok_or_else(|| format!("{arg} needs a size"))?;
                opts.max_cache_bytes = Some(parse_byte_size(raw)?);
            }
            "--stdio" => opts.stdio = true,
            "--caches" => opts.caches = true,
            "--persistence" => opts.persistence = true,
            "--pipeline" => opts.pipeline = true,
            "--unroll" => opts.unroll = true,
            "--disasm" => opts.show_disasm = true,
            "--check-only" => opts.check_only = true,
            "--run" => opts.also_run = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}` (try --help)"));
            }
            path => files.push(path.to_owned()),
        }
    }
    // The persistence analysis classifies against the cache model; on
    // the cache-less machine it would silently change nothing.
    if opts.persistence && !opts.caches {
        return Err("--persistence requires --caches (there is no cache to persist in)".into());
    }
    Ok((opts, files))
}

/// Renders the LP-solver effort of one run as a stderr suffix, empty
/// when the run did no solver work (cached replays, trivial programs) —
/// the cache/incremental stat lines stay byte-identical in that case.
fn lp_stats_suffix(report: &AnalysisReport) -> String {
    let trace = &report.trace;
    let mut suffix = String::new();
    if trace.lp_pivots > 0 {
        suffix.push_str(&format!(", {} LP pivot(s)", trace.lp_pivots));
    }
    if trace.lp_refactorizations > 0 {
        suffix.push_str(&format!(
            ", {} refactorization(s)",
            trace.lp_refactorizations
        ));
    }
    if trace.lp_presolve_removed > 0 {
        suffix.push_str(&format!(", {} presolved away", trace.lp_presolve_removed));
    }
    suffix
}

fn load_image(source_path: &str, isa: IsaKind) -> Result<Image, String> {
    let source = std::fs::read_to_string(source_path)
        .map_err(|e| format!("cannot read {source_path}: {e}"))?;
    assemble_for(isa, &source).map_err(|e| format!("{source_path}: {e}"))
}

fn load_annotations(path: Option<&str>) -> Result<AnnotationSet, String> {
    match path {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            AnnotationSet::parse(&text).map_err(|e| format!("{path}: {e}"))
        }
        None => Ok(AnnotationSet::new()),
    }
}

fn open_cache(dir: Option<&str>) -> Result<Option<ArtifactCache>, String> {
    match dir {
        Some(dir) => ArtifactCache::open(dir)
            .map(Some)
            .map_err(|e| format!("cannot open cache directory {dir}: {e}")),
        None => Ok(None),
    }
}

/// The analyzer configuration (and its machine model) one set of CLI
/// options describes — shared by the single-shot, batch, and serve paths
/// so their reports (and the serve dedup fingerprint) can never diverge.
fn analyzer_config(
    opts: &CliOptions,
    annotations: AnnotationSet,
) -> (AnalyzerConfig, MachineConfig) {
    let mut machine = if opts.caches {
        MachineConfig::with_caches_for(opts.isa)
    } else {
        MachineConfig::simple_for(opts.isa)
    };
    // The analysis flag and the simulated machine move together, so
    // `--run` observations stay comparable to the reported interval.
    machine.pipeline = opts.pipeline;
    let config = AnalyzerConfig {
        machine: machine.clone(),
        annotations,
        unrolling: opts.unroll,
        parallelism: opts.parallelism,
        context_depth: opts.context_depth,
        persistence: opts.persistence,
        pipeline: opts.pipeline,
        isa: opts.isa,
        ..AnalyzerConfig::new()
    };
    (config, machine)
}

fn analyze_one(
    image: &Image,
    annotations: AnnotationSet,
    opts: &CliOptions,
    cache: Option<&mut ArtifactCache>,
    pool: Option<&Arc<WorkerPool>>,
) -> Result<(AnalysisReport, MachineConfig), String> {
    let (config, machine) = analyzer_config(opts, annotations);
    let mut analyzer = WcetAnalyzer::with_config(config);
    if let Some(pool) = pool {
        analyzer = analyzer.with_pool(Arc::clone(pool));
    }
    let report = match cache {
        Some(cache) => analyzer.analyze_incremental(image, cache),
        None => analyzer.analyze(image),
    }
    .map_err(|e| e.to_string())?;
    Ok((report, machine))
}

/// Renders one analysis exactly as single-shot `wcet` prints it to
/// stdout — guideline findings, blank separator, analysis body (stopping
/// after the findings under `--check-only`). The serve handler returns
/// this same composition, which is what makes serve responses
/// byte-identical to single-shot runs.
fn compose_report(image: &Image, report: &AnalysisReport, check_only: bool) -> String {
    let mut out = render::render_guidelines(report);
    if report.guidelines.is_some() {
        out.push('\n');
        if check_only {
            return out;
        }
    }
    out.push_str(&render::render_analysis(image, report));
    out
}

/// Parses a byte-size argument: a plain byte count, or binary-unit
/// suffixes `k`, `m`, `g` (case-insensitive), e.g. `64m` = 64 MiB.
fn parse_byte_size(raw: &str) -> Result<u64, String> {
    let lower = raw.trim().to_ascii_lowercase();
    let (digits, unit) = if let Some(n) = lower.strip_suffix('k') {
        (n, 1u64 << 10)
    } else if let Some(n) = lower.strip_suffix('m') {
        (n, 1 << 20)
    } else if let Some(n) = lower.strip_suffix('g') {
        (n, 1 << 30)
    } else {
        (lower.as_str(), 1)
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|v| v.checked_mul(unit))
        .ok_or_else(|| format!("invalid size `{raw}` (expected bytes or k/m/g suffix)"))
}

/// Builds the shared [`AnalysisService`]: one persistent worker pool plus
/// a handler that runs the full load → analyze → render path per request,
/// opening the shared `--cache-dir` store per request (the disk store is
/// shared; the in-memory maps are not, so concurrent connections never
/// serialize on one cache handle) and triggering the GC watermark.
fn build_service(opts: &CliOptions) -> Result<AnalysisService, String> {
    // Surface a bad cache directory at startup, not on every request.
    open_cache(opts.cache_dir.as_deref())?;
    let pool = Arc::new(WorkerPool::new(worker_count(
        opts.workers.or(opts.parallelism),
    )));
    // The dedup key's config half: annotations ride per-request, so they
    // are hashed by the service from the annotation file bytes instead.
    let (config, _) = analyzer_config(opts, AnnotationSet::new());
    let fingerprint = config_fingerprint(&config);
    let opts = opts.clone();
    let handler = move |program: &Path,
                        annotations: Option<&Path>,
                        isa: Option<IsaKind>|
          -> Result<String, String> {
        let opts = opts.for_request(isa);
        let image = load_image(&program.to_string_lossy(), opts.isa)?;
        let annot_path = annotations.map(|p| p.to_string_lossy().into_owned());
        let annotations = load_annotations(annot_path.as_deref())?;
        let mut cache = open_cache(opts.cache_dir.as_deref())?;
        let (report, _) = analyze_one(&image, annotations, &opts, cache.as_mut(), Some(&pool))?;
        if let Some(stats) = &report.incr {
            eprintln!(
                "wcet: {}: {stats}{}",
                program.display(),
                lp_stats_suffix(&report)
            );
        }
        if let (Some(cache), Some(max)) = (cache.as_mut(), opts.max_cache_bytes) {
            // Best-effort watermark check; a failed GC degrades to an
            // unbounded cache, never to a failed request.
            if cache.disk_bytes().is_ok_and(|bytes| bytes > max) {
                match cache.gc(max) {
                    Ok(stats) => eprintln!("wcet: {stats}"),
                    Err(error) => eprintln!("wcet: gc failed: {error}"),
                }
            }
        }
        Ok(compose_report(&image, &report, opts.check_only))
    };
    Ok(AnalysisService::new(fingerprint, Box::new(handler)))
}

/// `wcet serve`: the long-lived analysis daemon. Request paths resolve
/// relative to the daemon's working directory.
fn run_serve(args: &[String]) -> Result<(), String> {
    let (opts, files) = parse_options(args)?;
    let socket = match (opts.stdio, files.as_slice()) {
        (true, []) => None,
        (true, _) => return Err("serve --stdio takes no socket path".to_owned()),
        (false, [one]) => Some(one.clone()),
        (false, []) => return Err("serve needs a socket path (or --stdio)".to_owned()),
        (false, _) => return Err("serve takes exactly one socket path".to_owned()),
    };
    let service = Arc::new(build_service(&opts)?);
    match socket {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let stats = serve::serve_connection(&service, stdin.lock(), stdout.lock())
                .map_err(|e| format!("serve: {e}"))?;
            eprintln!(
                "wcet serve: done: {} request(s), {} failure(s), {} deduped",
                stats.requests,
                stats.failures,
                service.dedup_hits()
            );
        }
        Some(path) => {
            let summary = serve::serve_unix(&service, Path::new(&path), || {
                eprintln!("wcet serve: listening on {path}");
            })
            .map_err(|e| format!("serve: {e}"))?;
            eprintln!(
                "wcet serve: shutdown: {} connection(s), {} request(s), {} failure(s), {} deduped",
                summary.connections,
                summary.requests,
                summary.failures,
                service.dedup_hits()
            );
        }
    }
    // Per-request failures were answered with `err` frames — a clean
    // shutdown is a success for the daemon itself.
    Ok(())
}

/// `wcet fuzz`: the differential-fuzzing campaign (see `wcet_core::fuzz`).
/// Deterministic in `--seed`: a CI failure replays locally with the same
/// seed and program count.
fn run_fuzz(args: &[String]) -> Result<(), String> {
    let mut opts = fuzz::FuzzOptions {
        programs: 500,
        progress_every: 100,
        ..fuzz::FuzzOptions::default()
    };
    let mut isa_override = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--programs" => {
                let raw = value("--programs")?;
                opts.programs = raw
                    .parse()
                    .map_err(|_| format!("invalid program count `{raw}`"))?;
            }
            "--seed" => {
                let raw = value("--seed")?;
                opts.seed = raw.parse().map_err(|_| format!("invalid seed `{raw}`"))?;
            }
            "--isa" => {
                let raw = value("--isa")?;
                isa_override = Some(IsaKind::parse(&raw).ok_or_else(|| {
                    format!("unknown ISA `{raw}` (expected one of: house, rv32i)")
                })?);
            }
            other => return Err(format!("unknown fuzz option `{other}`")),
        }
    }
    if let Some(isa) = isa_override {
        opts.isas = vec![isa];
    }
    let isa_names: Vec<&str> = opts.isas.iter().map(|i| i.name()).collect();
    eprintln!(
        "wcet fuzz: {} program(s) per ISA [{}], seed {}",
        opts.programs,
        isa_names.join(", "),
        opts.seed
    );
    let report = fuzz::run_campaign(&opts);
    match report.failure {
        None => {
            eprintln!(
                "wcet fuzz: {} program(s) checked across {} analyzer configs — no violations",
                report.programs_checked,
                fuzz::MATRIX.len()
            );
            Ok(())
        }
        Some(failure) => Err(format!("{failure}")),
    }
}

/// `wcet fuzz-lp`: the differential LP campaign — random models through
/// the sparse LU/eta engine (with and without presolve) against the
/// dense tableau oracle, plus warm-restart fixpoint checks. See
/// `wcet_ilp::fuzz` for the invariants.
fn run_fuzz_lp(args: &[String]) -> Result<(), String> {
    use wcet_predictability::ilp::fuzz as lp_fuzz;

    let mut opts = lp_fuzz::LpFuzzOptions {
        progress_every: 250,
        ..lp_fuzz::LpFuzzOptions::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--models" => {
                let raw = value("--models")?;
                opts.models = raw
                    .parse()
                    .map_err(|_| format!("invalid model count `{raw}`"))?;
            }
            "--seed" => {
                let raw = value("--seed")?;
                opts.seed = raw.parse().map_err(|_| format!("invalid seed `{raw}`"))?;
            }
            other => return Err(format!("unknown fuzz-lp option `{other}`")),
        }
    }
    eprintln!("wcet fuzz-lp: {} model(s), seed {}", opts.models, opts.seed);
    let report = lp_fuzz::run_campaign(&opts);
    match report.failure {
        None => {
            eprintln!(
                "wcet fuzz-lp: {} model(s) checked against the dense oracle — no disagreements",
                report.models_checked
            );
            Ok(())
        }
        Some(failure) => Err(format!("fuzz-lp: {failure}")),
    }
}

/// `wcet gc`: one offline GC pass over a cache directory. Without
/// `--max-bytes` it only sweeps stale temp files.
fn run_gc(args: &[String]) -> Result<(), String> {
    let (opts, files) = parse_options(args)?;
    if !files.is_empty() {
        return Err("gc takes no positional arguments (use --cache-dir)".to_owned());
    }
    let Some(cache) = open_cache(opts.cache_dir.as_deref())? else {
        return Err("gc needs --cache-dir <dir>".to_owned());
    };
    let mut cache = cache;
    let stats = cache
        .gc(opts.max_cache_bytes.unwrap_or(u64::MAX))
        .map_err(|e| format!("gc: {e}"))?;
    println!("{stats}");
    Ok(())
}

fn print_usage() {
    println!(
        "wcet — static WCET analyzer (reproduction of 'Software Structure \
         and WCET Predictability', PPES/DATE 2011)\n\n\
         usage:\n  wcet <program.s> [--annotations <file>] [--isa <name>] \
         [--caches] [--unroll] [--context-depth <k>] [--persistence] \
         [--pipeline] [--threads <n>] [--cache-dir <dir>] [--disasm] \
         [--check-only] [--run]\n  \
         wcet batch <manifest> [--cache-dir <dir>] [--isa <name>] [--caches] \
         [--unroll] [--context-depth <k>] [--persistence] [--pipeline] \
         [--threads <n>]\n  \
         wcet serve <socket> | --stdio [--cache-dir <dir>] [--workers <n>] \
         [--max-cache-bytes <size>] [analysis options]\n  \
         wcet gc --cache-dir <dir> [--max-bytes <size>]\n  \
         wcet fuzz [--programs <n>] [--seed <s>] [--isa <name>]\n  \
         wcet fuzz-lp [--models <n>] [--seed <s>]\n  \
         wcet --table1 [samples]\n  wcet --experiments\n  wcet --help"
    );
}
