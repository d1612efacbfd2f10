//! Integration tests for the service-shaped front ends: `wcet serve`
//! (stdio and Unix-socket modes), batch error isolation, the manifest
//! comment fix, multi-process shared-cache races, and GC under a
//! concurrent writer.
//!
//! The identity oracle mirrors `tests/cli_smoke.rs`: reports must match
//! byte-for-byte once the wall-clock phase lines are stripped.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use wcet_predictability::core::workload;

fn wcet(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wcet"))
        .args(args)
        .output()
        .expect("run wcet binary")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wcet-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Drops the phase lines that carry wall clocks; everything else must
/// match byte-for-byte.
fn strip_timings(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| !l.contains("Phase") && !l.contains("Graph") && !l.contains("Analysis:"))
        .collect::<Vec<_>>()
        .join("\n")
}

struct Frame {
    kind: String,
    seq: u64,
    payload: Vec<u8>,
}

/// Parses a serve response stream into its frames plus the final
/// `bye <requests> <failures>` totals.
fn parse_frames(mut bytes: &[u8]) -> (Vec<Frame>, Option<(u64, u64)>) {
    let mut frames = Vec::new();
    let mut bye = None;
    while !bytes.is_empty() {
        let nl = bytes
            .iter()
            .position(|&b| b == b'\n')
            .expect("frame header line");
        let header = std::str::from_utf8(&bytes[..nl]).expect("utf8 header");
        let mut fields = header.split_whitespace();
        let kind = fields.next().expect("frame kind").to_owned();
        bytes = &bytes[nl + 1..];
        if kind == "bye" {
            let requests = fields.next().expect("bye requests").parse().expect("u64");
            let failures = fields.next().expect("bye failures").parse().expect("u64");
            assert!(bytes.is_empty(), "bye is the last frame");
            bye = Some((requests, failures));
            break;
        }
        let seq: u64 = fields.next().expect("frame seq").parse().expect("u64");
        let len: usize = fields.next().expect("frame len").parse().expect("usize");
        assert!(bytes.len() >= len, "frame payload complete");
        frames.push(Frame {
            kind,
            seq,
            payload: bytes[..len].to_vec(),
        });
        bytes = &bytes[len..];
    }
    (frames, bye)
}

/// Runs `wcet serve --stdio`, feeding `requests` and returning parsed
/// frames, the bye totals, and the exit status.
fn serve_stdio(requests: &str, extra_args: &[&str]) -> (Vec<Frame>, Option<(u64, u64)>, Output) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_wcet"))
        .arg("serve")
        .arg("--stdio")
        .args(extra_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn wcet serve --stdio");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(requests.as_bytes())
        .expect("write requests");
    let output = child.wait_with_output().expect("serve output");
    let (frames, bye) = parse_frames(&output.stdout);
    (frames, bye, output)
}

#[test]
fn batch_isolates_failing_requests_and_reports_them_in_the_exit_code() {
    let dir = scratch_dir("batch-isolation");
    let good = dir.join("good.s");
    std::fs::write(
        &good,
        "main:\n li r1, 4\nl:\n subi r1, r1, 1\n bne r1, r0, l\n halt\n",
    )
    .expect("write program");
    let bad_syntax = dir.join("bad.s");
    std::fs::write(&bad_syntax, "main:\n frobnicate r1\n").expect("write program");
    let manifest = dir.join("batch.txt");
    std::fs::write(
        &manifest,
        "good.s\nmissing.s\nbad.s\ngood.s extra fields here\ngood.s\n",
    )
    .expect("write manifest");
    let cache = dir.join("cache");

    let out = wcet(&[
        "batch",
        manifest.to_str().unwrap(),
        "--cache-dir",
        cache.to_str().unwrap(),
    ]);
    assert!(
        !out.status.success(),
        "failed requests must surface in the exit code"
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        stdout.matches("── batch: ").count(),
        2,
        "both good requests analyzed:\n{stdout}"
    );
    for needle in [
        "batch.txt:2: cannot read",
        "batch.txt:3:",
        "batch.txt:4: expected `<program.s> [annotations] [--isa <name>]`",
        "batch: 3 of 5 request(s) failed",
    ] {
        assert!(stderr.contains(needle), "missing `{needle}`:\n{stderr}");
    }
    // The stream kept going: request 5 hit the artifacts request 1 stored.
    assert!(
        stderr.contains("batch done: 2 request(s), 1/2 function artifact(s) served from cache"),
        "summary line intact after failures:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_stdio_mixed_isa_stream() {
    let dir = scratch_dir("stdio-mixed-isa");
    let prog = dir.join("p.s");
    // In the RV32I subset, so the same source analyzes on both backends.
    std::fs::write(
        &prog,
        "main:\n li r1, 4\nl:\n subi r1, r1, 1\n bne r1, r0, l\n halt\n",
    )
    .expect("write program");
    let p = prog.to_str().unwrap();

    let requests = format!("{p}\n{p} --isa rv32i\n{p} --isa house\n@shutdown\n");
    let (frames, bye, out) = serve_stdio(&requests, &[]);
    assert!(out.status.success());
    assert_eq!(bye, Some((3, 0)));
    assert_eq!(frames.len(), 3);
    for (i, frame) in frames.iter().enumerate() {
        assert_eq!(frame.kind, "ok", "request {} succeeds", i + 1);
        assert_eq!(frame.seq, (i + 1) as u64);
    }
    // Identity oracle per ISA: each frame matches the single-shot run
    // with the same selector byte-for-byte modulo wall clocks.
    let house_single = wcet(&[p]);
    let rv32_single = wcet(&[p, "--isa", "rv32i"]);
    assert!(house_single.status.success() && rv32_single.status.success());
    assert_eq!(
        strip_timings(&frames[0].payload),
        strip_timings(&house_single.stdout),
        "default request = single-shot house report"
    );
    assert_eq!(
        strip_timings(&frames[1].payload),
        strip_timings(&rv32_single.stdout),
        "--isa rv32i request = single-shot rv32i report"
    );
    assert_eq!(
        strip_timings(&frames[2].payload),
        strip_timings(&house_single.stdout),
        "--isa house override = the default backend"
    );
    // And the two backends genuinely disagree (different timing models),
    // so any cross-ISA report sharing would be visible here.
    assert_ne!(
        strip_timings(&frames[0].payload),
        strip_timings(&frames[1].payload),
        "house and rv32i reports must differ"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_manifest_isa_tokens_select_backends() {
    let dir = scratch_dir("batch-mixed-isa");
    let prog = dir.join("p.s");
    std::fs::write(
        &prog,
        "main:\n li r1, 3\nl:\n subi r1, r1, 1\n bne r1, r0, l\n halt\n",
    )
    .expect("write program");
    let manifest = dir.join("batch.txt");
    // Relative paths resolve against the manifest; per-line `--isa`
    // overrides the CLI default (rv32i here, so line 1 is the override).
    std::fs::write(&manifest, "p.s --isa house\np.s\n").expect("write manifest");

    let out = wcet(&["batch", manifest.to_str().unwrap(), "--isa", "rv32i"]);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "mixed-ISA batch succeeds:\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(stdout.matches("── batch: ").count(), 2, "{stdout}");
    // The two runs differ: same source, different backend bounds.
    let house_single = wcet(&[prog.to_str().unwrap()]);
    let rv32_single = wcet(&[prog.to_str().unwrap(), "--isa", "rv32i"]);
    let wcet_line = |o: &Output| {
        String::from_utf8_lossy(&o.stdout)
            .lines()
            .find(|l| l.starts_with("task WCET bound:"))
            .expect("wcet line")
            .to_owned()
    };
    assert!(stdout.contains(&wcet_line(&house_single)), "{stdout}");
    assert!(stdout.contains(&wcet_line(&rv32_single)), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_paths_may_contain_hash_characters() {
    let dir = scratch_dir("batch-hash");
    let subdir = dir.join("build#42");
    std::fs::create_dir_all(&subdir).expect("subdir with # in name");
    std::fs::write(
        subdir.join("prog#1.s"),
        "main:\n li r1, 2\nl:\n subi r1, r1, 1\n bne r1, r0, l\n halt\n",
    )
    .expect("write program");
    let manifest = dir.join("batch.txt");
    std::fs::write(
        &manifest,
        "# full-line comment\nbuild#42/prog#1.s # trailing comment\n",
    )
    .expect("write manifest");

    let out = wcet(&["batch", manifest.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "a `#` inside a path is not a comment:\n{stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        stdout.contains("── batch: ") && stdout.contains("build#42/prog#1.s"),
        "request banner names the hash-bearing path:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_stdio_responses_match_single_shot_goldens_for_the_corpus() {
    let dir = scratch_dir("corpus");
    let corpus = workload::corpus();
    assert!(corpus.len() >= 13, "corpus carries the 13 workloads");

    // Golden: one single-shot run per workload source. Some corpus images
    // append data segments programmatically, so re-assembly can fail or
    // report unresolved jumps — the daemon must mirror whatever the
    // single-shot front end does, success or failure.
    let mut requests = String::new();
    let mut goldens = Vec::new();
    for w in &corpus {
        let program = dir.join(format!("{}.s", w.name));
        std::fs::write(&program, &w.source).expect("write workload source");
        let golden = wcet(&[program.to_str().unwrap()]);
        requests.push_str(&format!("{}\n", program.display()));
        goldens.push((w.name, golden));
    }
    // One annotated request exercises the two-field line: annotations
    // ride per request, exactly like `--annotations` in single-shot.
    let annotated = workload::persistence_killer();
    let program = dir.join("persistence_killer.s");
    std::fs::write(&program, &annotated.source).expect("write workload source");
    let annots = dir.join("persistence_killer.annot");
    let header = annotated.image.symbol("loop").expect("loop label");
    std::fs::write(&annots, format!("loop {header} bound 48;\n")).expect("write annotations");
    let golden = wcet(&[
        program.to_str().unwrap(),
        "--annotations",
        annots.to_str().unwrap(),
    ]);
    requests.push_str(&format!("{} {}\n", program.display(), annots.display()));
    goldens.push(("persistence_killer+annotations", golden));
    requests.push_str("@shutdown\n");

    let (frames, bye, output) = serve_stdio(&requests, &[]);
    assert!(output.status.success(), "clean daemon shutdown exits 0");
    assert_eq!(frames.len(), goldens.len(), "one frame per request");
    let mut failures = 0;
    for (idx, (frame, (name, golden))) in frames.iter().zip(&goldens).enumerate() {
        assert_eq!(
            frame.seq,
            idx as u64 + 1,
            "{name}: frames arrive in request order"
        );
        if golden.status.success() {
            assert_eq!(frame.kind, "ok", "{name}: single-shot succeeded");
            assert_eq!(
                strip_timings(&frame.payload),
                strip_timings(&golden.stdout),
                "{name}: serve response diverged from single-shot stdout"
            );
        } else {
            assert_eq!(frame.kind, "err", "{name}: single-shot failed");
            failures += 1;
        }
    }
    let (requests_total, failures_total) = bye.expect("bye frame");
    assert_eq!(requests_total, goldens.len() as u64);
    assert_eq!(failures_total, failures);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_unix_socket_serves_connections_and_shuts_down_cleanly() {
    let dir = scratch_dir("socket");
    let program = dir.join("prog.s");
    std::fs::write(
        &program,
        "main:\n li r1, 6\nl:\n subi r1, r1, 1\n bne r1, r0, l\n halt\n",
    )
    .expect("write program");
    let socket = dir.join("wcet.sock");
    let cache = dir.join("cache");
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_wcet"))
        .args([
            "serve",
            socket.to_str().unwrap(),
            "--cache-dir",
            cache.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert!(socket.exists(), "daemon bound its socket");

    let talk = |lines: &str| -> Vec<u8> {
        let mut stream = UnixStream::connect(&socket).expect("connect");
        stream.write_all(lines.as_bytes()).expect("send requests");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("read frames");
        response
    };

    let request = format!("{}\nmissing.s\n{0}\n", program.display());
    let cold = talk(&request);
    let warm = talk(&format!("{request}@shutdown\n"));
    let status = daemon.wait().expect("daemon exit");
    assert!(status.success(), "@shutdown exits the daemon cleanly");
    assert!(!socket.exists(), "socket removed on shutdown");

    for (label, bytes) in [("cold", &cold), ("warm", &warm)] {
        let (frames, bye) = parse_frames(bytes);
        assert_eq!(bye, Some((3, 1)), "{label} connection totals");
        assert_eq!(
            frames.iter().map(|f| f.kind.as_str()).collect::<Vec<_>>(),
            ["ok", "err", "ok"],
            "{label}: the poison request is isolated mid-stream"
        );
        assert_eq!(frames[0].seq, 1);
        assert_eq!(frames[2].seq, 3);
    }
    let (cold_frames, _) = parse_frames(&cold);
    let (warm_frames, _) = parse_frames(&warm);
    assert_eq!(
        strip_timings(&cold_frames[0].payload),
        strip_timings(&warm_frames[0].payload),
        "cache-warm connection serves byte-identical reports"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes `count` distinct single-loop programs and a manifest listing
/// them all, returning the manifest path.
fn write_variant_manifest(dir: &Path, count: usize) -> PathBuf {
    let mut manifest = String::new();
    for i in 0..count {
        let name = format!("v{i}.s");
        std::fs::write(
            dir.join(&name),
            format!(
                "main:\n li r1, {}\nl:\n subi r1, r1, 1\n bne r1, r0, l\n halt\n",
                i + 2
            ),
        )
        .expect("write variant");
        manifest.push_str(&name);
        manifest.push('\n');
    }
    let path = dir.join("variants.txt");
    std::fs::write(&path, manifest).expect("write manifest");
    path
}

#[test]
fn racing_batch_processes_share_one_cache_without_corruption() {
    let dir = scratch_dir("race");
    let manifest = write_variant_manifest(&dir, 12);
    let cache = dir.join("cache");
    std::fs::create_dir_all(cache.join("fn")).expect("pre-create cache");
    // A crashed writer's dropping: swept when the racers open the cache.
    let stale_tmp = cache.join("fn").join("deadbeef.art.tmp.4000000000");
    std::fs::write(&stale_tmp, b"torn").expect("plant stale tmp");

    // Reference: the same manifest, no cache.
    let reference = wcet(&["batch", manifest.to_str().unwrap()]);
    assert!(reference.status.success());

    let spawn = || {
        Command::new(env!("CARGO_BIN_EXE_wcet"))
            .args([
                "batch",
                manifest.to_str().unwrap(),
                "--cache-dir",
                cache.to_str().unwrap(),
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn racer")
    };
    let racers = [spawn(), spawn()];
    for racer in racers {
        let out = racer.wait_with_output().expect("racer output");
        assert!(
            out.status.success(),
            "racing batch exits 0: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            strip_timings(&out.stdout),
            strip_timings(&reference.stdout),
            "racing batch reports are byte-identical to the uncached run"
        );
    }
    assert!(!stale_tmp.exists(), "stale tmp swept on cache open");
    for kind in ["fn", "unit"] {
        for entry in std::fs::read_dir(cache.join(kind)).expect("cache subdir") {
            let name = entry.expect("entry").file_name();
            assert!(
                !name.to_string_lossy().contains(".tmp."),
                "no tmp droppings after a clean race: {name:?}"
            );
        }
    }
    // The store the racers left behind replays cleanly.
    let warm = wcet(&[
        "batch",
        manifest.to_str().unwrap(),
        "--cache-dir",
        cache.to_str().unwrap(),
    ]);
    assert!(warm.status.success());
    assert_eq!(
        strip_timings(&warm.stdout),
        strip_timings(&reference.stdout)
    );
    assert!(
        String::from_utf8_lossy(&warm.stderr).contains("0 IPET solve(s)"),
        "post-race store serves every request from cache"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gc_shrinks_a_live_cache_below_the_watermark_without_corrupting_it() {
    let dir = scratch_dir("gc-race");
    let manifest = write_variant_manifest(&dir, 24);
    let cache = dir.join("cache");
    let reference = wcet(&["batch", manifest.to_str().unwrap()]);
    assert!(reference.status.success());

    // A writer streams 24 requests into the cache while gc passes run
    // against the same directory mid-flight.
    let writer = Command::new(env!("CARGO_BIN_EXE_wcet"))
        .args([
            "batch",
            manifest.to_str().unwrap(),
            "--cache-dir",
            cache.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn writer");
    let max_bytes = "2k";
    for _ in 0..5 {
        let gc = wcet(&[
            "gc",
            "--cache-dir",
            cache.to_str().unwrap(),
            "--max-bytes",
            max_bytes,
        ]);
        assert!(
            gc.status.success(),
            "gc survives a concurrent writer: {}",
            String::from_utf8_lossy(&gc.stderr)
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let out = writer.wait_with_output().expect("writer output");
    assert!(
        out.status.success(),
        "writer survives concurrent eviction: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        strip_timings(&out.stdout),
        strip_timings(&reference.stdout),
        "eviction mid-stream never changes analysis results"
    );

    // A final pass lands (and stays) under the watermark.
    let gc = wcet(&[
        "gc",
        "--cache-dir",
        cache.to_str().unwrap(),
        "--max-bytes",
        max_bytes,
    ]);
    assert!(gc.status.success());
    let stdout = String::from_utf8_lossy(&gc.stdout).into_owned();
    let kept: u64 = stdout
        .split(" evicted (")
        .nth(1)
        .and_then(|rest| rest.split(" bytes kept").next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("gc stats line: {stdout}"));
    assert!(kept <= 2048, "store fits under the watermark: {stdout}");

    // Whatever survived still replays correctly.
    let warm = wcet(&[
        "batch",
        manifest.to_str().unwrap(),
        "--cache-dir",
        cache.to_str().unwrap(),
    ]);
    assert!(warm.status.success());
    assert_eq!(
        strip_timings(&warm.stdout),
        strip_timings(&reference.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
