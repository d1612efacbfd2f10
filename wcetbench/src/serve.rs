//! `serve_stream`: two closed-loop connections to a `wcet serve` daemon
//! with an artifact cache small enough that garbage collection runs. Each
//! connection sends one request line, waits for its frame, and sends the
//! next; requests follow a seeded Zipf distribution over a pool of small
//! generated programs, so a few repeat often and many are first-seen.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wcet_predictability::core::analyzer::WcetAnalyzer;
use wcet_predictability::core::fuzz::OracleCase;
use wcet_predictability::core::incr::{ArtifactCache, IncrStats};
use wcet_predictability::core::parallel::WorkerPool;
use wcet_predictability::guidelines::annot::AnnotationSet;
use wcet_predictability::isa::asm::assemble_for;
use wcet_predictability::isa::IsaKind;

use crate::gen::{self, Rng, Shape};
use crate::harness::{self, RunResult, Shapes};
use crate::trace::Tracer;

/// Programs in the request pool.
const POOL: usize = 300;
/// Zipf exponent of the request distribution over pool ranks.
const ZIPF_S: f64 = 0.8;
/// The most-requested programs; `wcet_overestimate` and the shape counts
/// cover exactly these, so they do not depend on how many requests ran.
const HOT: usize = 32;
/// GC watermark of the daemon's artifact cache: a few dozen programs'
/// artifacts, so first-seen requests keep triggering collections.
const MAX_CACHE_BYTES: &str = "1m";
const MAX_CACHE: u64 = 1 << 20;
/// What `wcet serve --caches` analyzes with: caches, depth 0.
const CASE: OracleCase = OracleCase {
    caches: true,
    context_depth: 0,
    persistence: false,
    unrolling: false,
    pipeline: false,
};
const SOCKET: &str = "s.sock";

/// `latency_tail_ms` percentile (~1400 requests per 32 s, so ~14 beyond it).
const TAIL_PERCENTILE: f64 = 99.0;
/// Untimed requests before the measured phase, in seconds: long enough to
/// fill the store to its watermark, so timing starts with GC under way.
const WARMUP_S: f64 = 1.0;

struct Entry {
    isa: IsaKind,
    program: PathBuf,
    annotations: Option<PathBuf>,
    line: String,
}

/// Writes the pool under `work/p` and returns its request lines. Entry
/// `i` is the Zipf rank-`i` program: 12 to 48 functions, every third one
/// RV32I, half of them in flash. Requests are sized so that analysis,
/// not the vCPU wake-ups of the daemon's pool fan-outs, dominates each
/// round trip.
fn write_pool(seed: u64, work: &Path) -> Vec<Entry> {
    let dir = work.join("p");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the pool directory");
    let mut rng = Rng::new(seed ^ 0x5e7e);
    (0..POOL)
        .map(|i| {
            // The shape follows the rank, so every seed puts the same mix
            // of sizes, ISAs and code placements at each popularity.
            let isa = if i % 3 == 2 {
                IsaKind::Rv32i
            } else {
                IsaKind::House
            };
            let shape = Shape {
                isa,
                functions: 12 + (i * 5) % 37,
                flash: (i / 3) % 2 == 0,
            };
            let program = gen::generate(shape, rng.next_u64());
            let rel = PathBuf::from(format!("p/{i}.s"));
            std::fs::write(work.join(&rel), program.source()).expect("write a pool program");
            let mut line = rel.display().to_string();
            let annotations = (!program.annotated.is_empty()).then(|| {
                let image = gen::assemble(&program);
                let ann = PathBuf::from(format!("p/{i}.ann"));
                std::fs::write(work.join(&ann), program.annotations(&image))
                    .expect("write an annotation file");
                line.push(' ');
                line.push_str(&ann.display().to_string());
                ann
            });
            if isa == IsaKind::Rv32i {
                line.push_str(" --isa rv32i");
            }
            Entry {
                isa,
                program: rel,
                annotations,
                line,
            }
        })
        .collect()
}

/// A running `wcet serve` and the lines of its standard error.
struct Daemon {
    child: Child,
    stderr: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

impl Daemon {
    fn start(wcet: &Path, work: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(work.join("cache"));
        let mut child = Command::new(wcet)
            .current_dir(work)
            .args(["serve", SOCKET, "--caches", "--workers"])
            .arg(harness::threads().to_string())
            .args(["--cache-dir", "cache", "--max-cache-bytes", MAX_CACHE_BYTES])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", wcet.display()))?;
        let pipe = child.stderr.take().expect("piped stderr");
        let (tx, stderr) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let daemon = Daemon {
            child,
            stderr,
            reader: Some(reader),
        };
        loop {
            match daemon.stderr.recv_timeout(Duration::from_secs(30)) {
                Ok(line) if line.contains("listening on") => return Ok(daemon),
                Ok(_) => {}
                Err(_) => return Err("wcet serve never became ready".to_owned()),
            }
        }
    }

    /// Sends `@shutdown`, waits for the daemon to exit, and returns the
    /// rest of its standard error.
    fn shutdown(mut self, socket: &Path) -> Result<Vec<String>, String> {
        let mut stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        stream
            .write_all(b"@shutdown\n")
            .map_err(|e| format!("send @shutdown: {e}"))?;
        let mut bye = String::new();
        let _ = stream.read_to_string(&mut bye);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("wcet serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => return Err("wcet serve did not shut down".to_owned()),
            }
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        Ok(self.stderr.try_iter().collect())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// One answered request.
struct Sample {
    entry: usize,
    /// When the request was sent.
    at: Instant,
    ok: bool,
    payload: String,
}

/// Draws pool indices with probability proportional to `1 / rank^s`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cdf.last().expect("non-empty pool");
        let x = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        self.cdf
            .partition_point(|&c| c <= x)
            .min(self.cdf.len() - 1)
    }
}

/// Reads one `ok|err <seq> <len>` frame.
fn read_frame(reader: &mut impl BufRead) -> Result<(bool, String), String> {
    let mut header = String::new();
    reader
        .read_line(&mut header)
        .map_err(|e| format!("read frame header: {e}"))?;
    let mut fields = header.split_whitespace();
    let kind = fields.next().ok_or("connection closed")?;
    let len: usize = fields
        .nth(1)
        .and_then(|l| l.parse().ok())
        .ok_or_else(|| format!("bad frame header `{}`", header.trim()))?;
    let mut payload = vec![0; len];
    reader
        .read_exact(&mut payload)
        .map_err(|e| format!("read frame payload: {e}"))?;
    let payload = String::from_utf8(payload).map_err(|_| "frame is not UTF-8".to_owned())?;
    Ok((kind == "ok", payload))
}

/// Everything the per-request handler replay needs.
struct Replay<'a> {
    work: &'a Path,
    cache: PathBuf,
    /// One persistent pool shared by every replay, as the daemon shares
    /// one across requests.
    pool: Arc<WorkerPool>,
}

impl Replay<'_> {
    /// Replays the daemon handler's public calls for `entry` in-process:
    /// read, assemble, parse annotations, open the cache, analyze,
    /// watermark check, render.
    fn run(&self, tr: &mut Tracer, entry: &Entry) {
        let root = tr.begin("core.serve.handler");
        let read = tr.begin("io.read");
        let source = std::fs::read_to_string(self.work.join(&entry.program)).unwrap_or_default();
        let annot_text = entry
            .annotations
            .as_ref()
            .map(|a| std::fs::read_to_string(self.work.join(a)).unwrap_or_default());
        tr.end(read);
        let asm = tr.begin("isa.assemble");
        let image = assemble_for(entry.isa, &source);
        tr.end(asm);
        let parse = tr.begin("guidelines.annot_parse");
        let annotations =
            annot_text.map_or_else(|| Ok(AnnotationSet::new()), |t| AnnotationSet::parse(&t));
        tr.end(parse);
        let (Ok(image), Ok(annotations)) = (image, annotations) else {
            tr.end(root);
            return;
        };
        let open = tr.begin("core.incr.open");
        let cache = ArtifactCache::open(&self.cache);
        tr.end(open);
        let Ok(mut cache) = cache else {
            tr.end(root);
            return;
        };
        let (config, _) = harness::configure(entry.isa, CASE, annotations);
        let analyzer = WcetAnalyzer::with_config(config).with_pool(Arc::clone(&self.pool));
        let report = harness::analyze(tr, &analyzer, &image, Some(&mut cache));
        let gc = tr.begin("core.incr.gc");
        if cache.disk_bytes().is_ok_and(|bytes| bytes > MAX_CACHE) {
            let _ = cache.gc(MAX_CACHE);
        }
        tr.end(gc);
        if let Ok(report) = report {
            std::hint::black_box(harness::render_report(tr, &image, &report));
        }
        tr.end(root);
    }
}

/// The request stream both connections draw from.
struct Stream<'a> {
    socket: &'a Path,
    pool: &'a [Entry],
    zipf: Zipf,
    epoch: Instant,
}

impl Stream<'_> {
    /// One connection's closed loop until `deadline`.
    fn client(
        &self,
        mut rng: Rng,
        deadline: Instant,
        tr: &mut Tracer,
        replay: Option<&Replay<'_>>,
        first_op: u64,
    ) -> Result<(Vec<Sample>, Vec<f64>), String> {
        let (pool, zipf) = (self.pool, &self.zipf);
        let stream = UnixStream::connect(self.socket).map_err(|e| format!("connect: {e}"))?;
        let mut writer = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        let mut reader = BufReader::new(stream);
        let mut samples = Vec::new();
        let mut latencies = Vec::new();
        let mut op = first_op;
        while Instant::now() < deadline {
            let entry = zipf.sample(&mut rng);
            tr.set_op(op);
            let start = Instant::now();
            let span = tr.begin("core.serve.roundtrip");
            writer
                .write_all(format!("{}\n", pool[entry].line).as_bytes())
                .map_err(|e| format!("send request: {e}"))?;
            let (ok, payload) = read_frame(&mut reader)?;
            tr.end(span);
            latencies.push(start.elapsed().as_secs_f64() * 1e3);
            if let Some(replay) = replay {
                replay.run(tr, &pool[entry]);
            }
            samples.push(Sample {
                entry,
                at: start,
                ok,
                payload,
            });
            op += 1;
        }
        writer
            .shutdown(std::net::Shutdown::Write)
            .map_err(|e| format!("half-close: {e}"))?;
        let mut bye = String::new();
        let _ = reader.read_to_string(&mut bye);
        if !bye.starts_with("bye ") {
            return Err(format!("connection ended without bye: `{}`", bye.trim()));
        }
        Ok((samples, latencies))
    }

    /// Runs every connection until `seconds` pass, each drawing requests
    /// from its own stream seeded by `seed`; returns the samples, the
    /// latencies, the phase wall time, and the connections' spans.
    fn phase(
        &self,
        seed: u64,
        seconds: f64,
        replay: Option<&Replay<'_>>,
        first_op: u64,
    ) -> Result<(Vec<Sample>, Vec<f64>, f64, Tracer), String> {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let connections = harness::threads();
        let outcomes: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..connections)
                .map(|c| {
                    let rng = Rng::new(seed ^ (0xc0_ffee + c as u64));
                    s.spawn(move || {
                        let mut tr = Tracer::new(replay.is_some(), self.epoch);
                        let first = first_op + c as u64 * 1_000_000;
                        self.client(rng, deadline, &mut tr, replay, first)
                            .map(|(samples, latencies)| (samples, latencies, tr))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall = start.elapsed().as_secs_f64();
        let mut samples = Vec::new();
        let mut latencies = Vec::new();
        let mut tracer = Tracer::new(replay.is_some(), self.epoch);
        for outcome in outcomes {
            let (s, l, tr) = outcome?;
            samples.extend(s);
            latencies.extend(l);
            tracer.absorb(tr);
        }
        Ok((samples, latencies, wall, tracer))
    }
}

/// What the daemon's standard error says about its own work.
#[derive(Default)]
struct DaemonLog {
    incr: IncrStats,
    requests: usize,
    gc_runs: u64,
    dedup_hits: u64,
}

/// Parses `wcet: <path>: cache: H/F function artifact(s) hit, D dirty,
/// I IPET hit(s), S IPET solve(s)…`, `wcet: gc: …`, and the shutdown
/// summary's `N deduped`.
fn parse_log(lines: &[String]) -> DaemonLog {
    let mut log = DaemonLog::default();
    let number = |s: &str| s.trim().parse::<usize>().unwrap_or(0);
    for line in lines {
        if let Some((_, stats)) = line.split_once(": cache: ") {
            let parts: Vec<&str> = stats.split(", ").collect();
            if let Some((hits, rest)) = parts[0].split_once('/') {
                log.incr.fn_hits += number(hits);
                log.incr.functions += number(rest.split_whitespace().next().unwrap_or("0"));
            }
            let lead = |i: usize| {
                parts
                    .get(i)
                    .map_or(0, |p| number(p.split_whitespace().next().unwrap_or("0")))
            };
            log.incr.dirty += lead(1);
            log.incr.ipet_hits += lead(2);
            log.incr.ipet_solves += lead(3);
            log.requests += 1;
        } else if line.starts_with("wcet: gc: ") {
            log.gc_runs += 1;
        } else if let Some(rest) = line.strip_prefix("wcet serve: shutdown: ") {
            if let Some(d) = rest.rsplit(", ").next() {
                log.dedup_hits = number(d.trim_end_matches(" deduped")) as u64;
            }
        }
    }
    log
}

/// Writes the pool under `work` and starts a daemon there.
fn setup(seed: u64, work: &Path, wcet: &Path) -> Result<(Vec<Entry>, Daemon), String> {
    let pool = write_pool(seed, work);
    Ok((pool, Daemon::start(wcet, work)?))
}

/// Times one set-up in `dir`, then shuts its daemon down and removes `dir`
/// untimed.
fn side_setup(seed: u64, dir: &Path, wcet: &Path) -> Result<f64, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let (state, wall) = harness::timed(|| setup(seed, dir, wcet));
    state?.1.shutdown(&dir.join(SOCKET))?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(wall)
}

pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
    wcet: &Path,
) -> Result<RunResult, String> {
    let socket = work.join(SOCKET);
    let (state, first_setup_s) = harness::timed(|| setup(seed, work, wcet));
    let (pool, daemon) = state?;
    let epoch = Instant::now();
    let stream = Stream {
        socket: &socket,
        pool: &pool,
        zipf: Zipf::new(POOL, ZIPF_S),
        epoch,
    };
    let (warmup, _, _, _) = stream.phase(seed ^ 0x3a7e, WARMUP_S, None, 0)?;
    // The untraced phase in slices, with a side set-up before each slice
    // but the first, as `harness::run_phases` does in-process.
    let untraced = if trace { seconds / 2.0 } else { seconds };
    let mut setups = vec![first_setup_s];
    let (mut samples, mut latencies, mut phase_s) = (Vec::new(), Vec::new(), 0.0);
    for slice in 0..harness::SETUPS {
        if slice > 0 {
            setups.push(side_setup(seed, &work.join("side"), wcet)?);
        }
        let slice_seed = seed ^ ((slice as u64) << 40);
        let (s, l, wall, _) = stream.phase(
            slice_seed,
            untraced / harness::SETUPS as f64,
            None,
            (warmup.len() + samples.len()) as u64,
        )?;
        samples.extend(s);
        latencies.extend(l);
        phase_s += wall;
    }
    let mut result = RunResult {
        setup_walls: setups,
        tail_percentile: TAIL_PERCENTILE,
        warmup_ops: warmup.len() as u64,
        ..RunResult::default()
    };
    result.keys = samples.iter().map(|s| s.entry).collect();
    // Warm-up requests are checked like the rest.
    samples.splice(0..0, warmup);
    let mut attempted = samples.len() as u64;
    if trace {
        let replay = Replay {
            work,
            cache: work.join("replay-cache"),
            pool: Arc::new(WorkerPool::new(harness::threads())),
        };
        // Bring the replay's cache to the state the daemon's reached over
        // the warm-up and the untraced half, untimed, so each traced replay does the same
        // mix of hits and first-seen work the daemon did for the request.
        let mut served: Vec<&Sample> = samples.iter().collect();
        served.sort_by_key(|s| s.at);
        let mut quiet = Tracer::new(false, epoch);
        for s in served {
            replay.run(&mut quiet, &pool[s.entry]);
        }
        let (s, l, _, tr) =
            stream.phase(seed ^ 0x7ace, seconds / 2.0, Some(&replay), 10_000_000)?;
        attempted += s.len() as u64;
        result.traced_ops = s.len() as u64;
        result.traced_keys = s.iter().map(|s| s.entry).collect();
        result.traced_latencies_ms = l;
        samples.extend(s);
        result.spans = tr.into_spans();
    }
    result.peak_rss_mb = harness::peak_rss_mb(Some(daemon.child.id()));
    let log = parse_log(&daemon.shutdown(&socket)?);
    eprintln!(
        "wcetbench: daemon: {} requests, {}/{} function artifacts hit, {} GC passes, {} deduped",
        log.requests, log.incr.fn_hits, log.incr.functions, log.gc_runs, log.dedup_hits
    );
    let cache_bytes = ArtifactCache::open(work.join("cache")).and_then(|c| c.disk_bytes());

    // Checks, outside the timed region: every frame against the
    // in-process report for its request, and every requested program's
    // envelope; the hot set gives the overestimate and shapes.
    let inputs = gen::input_vectors(seed);
    let mut expected: BTreeMap<usize, Result<String, String>> = BTreeMap::new();
    let mut ratios = Vec::new();
    let mut shapes = Shapes::default();
    let mut reference = |idx: usize, hot: bool| -> Result<String, String> {
        let entry = &pool[idx];
        let source =
            std::fs::read_to_string(work.join(&entry.program)).map_err(|e| e.to_string())?;
        let image = assemble_for(entry.isa, &source).map_err(|e| e.to_string())?;
        let annotations = match &entry.annotations {
            Some(a) => AnnotationSet::parse(
                &std::fs::read_to_string(work.join(a)).map_err(|e| e.to_string())?,
            )
            .map_err(|e| e.to_string())?,
            None => AnnotationSet::new(),
        };
        let (config, machine) = harness::configure(entry.isa, CASE, annotations);
        let report = WcetAnalyzer::with_config(config)
            .analyze(&image)
            .map_err(|e| e.to_string())?;
        let observed = harness::observe(&image, &machine, &inputs)?;
        let ratio = harness::envelope(report.wcet_cycles, report.bcet_cycles, observed)?;
        if hot {
            ratios.push(ratio);
            shapes.add(&report.trace);
        }
        let text = harness::render_report(&mut Tracer::new(false, epoch), &image, &report);
        Ok(harness::strip_timings(&text))
    };
    for idx in 0..HOT {
        expected.insert(idx, reference(idx, true));
    }
    let mut failed = 0u64;
    for sample in &samples {
        let want = expected
            .entry(sample.entry)
            .or_insert_with(|| reference(sample.entry, false));
        let good = sample.ok
            && want
                .as_ref()
                .is_ok_and(|w| *w == harness::strip_timings(&sample.payload));
        if !good {
            failed += 1;
            if result.problems.len() < 8 {
                let why = match want {
                    Err(e) => e.clone(),
                    Ok(_) if !sample.ok => format!("err frame: {}", sample.payload.trim()),
                    Ok(_) => "frame differs from the in-process report".to_owned(),
                };
                result
                    .problems
                    .push(format!("request {}: {why}", pool[sample.entry].line));
            }
        }
    }
    for (idx, want) in &expected {
        if let Err(e) = want {
            result.problems.push(format!("pool program {idx}: {e}"));
        }
    }

    result
        .layers
        .extend(harness::incr_layers(&log.incr, log.requests));
    result.layers.extend([
        ("core.incr.gc_runs", log.gc_runs as f64),
        ("core.serve.dedup_hits", log.dedup_hits as f64),
    ]);
    if let Ok(bytes) = cache_bytes {
        result.layers.insert("core.incr.cache_bytes", bytes as f64);
    }
    result.attempted = attempted;
    result.failed = failed;
    result.latencies_ms = latencies;
    result.phase_s = phase_s;
    result.overestimate = harness::geomean(&ratios);
    result.shapes = shapes;
    Ok(result)
}
