//! Smoke tests for the `wcet` binary: exit codes, help text, the Table-1
//! driver, and a full analyze run over an assembly program from a file.

use std::process::Command;

fn wcet(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_wcet"))
        .args(args)
        .output()
        .expect("spawning wcet binary")
}

#[test]
fn no_arguments_prints_usage_and_exits_zero() {
    let out = wcet(&[]);
    assert!(out.status.success(), "bare invocation must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage:"), "usage text missing:\n{stdout}");
}

#[test]
fn help_flag_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = wcet(&[flag]);
        assert!(out.status.success(), "{flag} must exit 0");
        assert!(String::from_utf8_lossy(&out.stdout).contains("WCET"));
    }
}

#[test]
fn unknown_option_fails_with_diagnostic() {
    let out = wcet(&["--frobnicate"]);
    assert!(!out.status.success(), "unknown options must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown option"),
        "diagnostic missing:\n{stderr}"
    );
}

#[test]
fn missing_file_fails_with_diagnostic() {
    let out = wcet(&["/nonexistent/program.s"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot read"),
        "diagnostic missing:\n{stderr}"
    );
}

#[test]
fn table1_driver_runs_small_sample_count() {
    let out = wcet(&["--table1", "20000"]);
    assert!(out.status.success(), "--table1 must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("ldivmod"),
        "Table 1 output missing:\n{stdout}"
    );
}

#[test]
fn threads_flag_is_validated_and_bounds_agree() {
    let dir = std::env::temp_dir().join(format!("wcet-cli-threads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let program = dir.join("fanout.s");
    std::fs::write(
        &program,
        ".org 0x1000\n\
         main:\n\
             call f0\n\
             call f1\n\
             halt\n\
         f0:\n\
             li   r1, 6\n\
         f0l:\n\
             subi r1, r1, 1\n\
             bne  r1, r0, f0l\n\
             ret\n\
         f1:\n\
             li   r1, 9\n\
         f1l:\n\
             subi r1, r1, 1\n\
             bne  r1, r0, f1l\n\
             ret\n",
    )
    .expect("write program");

    let bad = wcet(&[program.to_str().unwrap(), "--threads", "0"]);
    assert!(!bad.status.success(), "--threads 0 must be rejected");
    assert!(String::from_utf8_lossy(&bad.stderr).contains("--threads"));

    // The WCET/BCET headlines must not depend on the worker count
    // (phase times do — they are wall clocks).
    let headlines = |threads: &str| {
        let out = wcet(&[program.to_str().unwrap(), "--threads", threads]);
        assert!(out.status.success(), "--threads {threads} failed");
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.contains("bound:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let sequential = headlines("1");
    assert!(sequential.contains("task WCET bound:"), "{sequential}");
    assert_eq!(sequential, headlines("4"));

    std::fs::remove_dir_all(&dir).ok();
}

/// The CI contract for the warm-cache job, enforced on every test run:
/// analyzing twice against a shared cache directory leaves stdout
/// byte-identical, and the second (warm) run reports a nonzero cache-hit
/// count on stderr.
#[test]
fn warm_cache_run_is_byte_identical_with_nonzero_hits() {
    let dir = std::env::temp_dir().join(format!("wcet-cli-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let program = dir.join("fanout.s");
    std::fs::write(
        &program,
        ".org 0x1000\n\
         main:\n\
             call f0\n\
             call f1\n\
             halt\n\
         f0:\n\
             li   r1, 6\n\
         f0l:\n\
             subi r1, r1, 1\n\
             bne  r1, r0, f0l\n\
             ret\n\
         f1:\n\
             li   r1, 9\n\
         f1l:\n\
             subi r1, r1, 1\n\
             bne  r1, r0, f1l\n\
             ret\n",
    )
    .expect("write program");
    let cache_dir = dir.join("cache");
    let args = [
        program.to_str().unwrap(),
        "--cache-dir",
        cache_dir.to_str().unwrap(),
    ];

    let strip_timings = |stdout: &[u8]| {
        // Phase lines carry wall clocks; everything else must match.
        String::from_utf8_lossy(stdout)
            .lines()
            .filter(|l| !l.contains("Phase") && !l.contains("Graph") && !l.contains("Analysis:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let cold = wcet(&args);
    assert!(cold.status.success(), "cold cached run exits 0");
    let cold_stderr = String::from_utf8_lossy(&cold.stderr).into_owned();
    assert!(
        cold_stderr.contains("0/3 function artifact(s) hit"),
        "cold run misses everything:\n{cold_stderr}"
    );

    let warm = wcet(&args);
    assert!(warm.status.success(), "warm cached run exits 0");
    assert_eq!(
        strip_timings(&cold.stdout),
        strip_timings(&warm.stdout),
        "warm stdout diverged from cold"
    );
    let warm_stderr = String::from_utf8_lossy(&warm.stderr).into_owned();
    assert!(
        warm_stderr.contains("3/3 function artifact(s) hit"),
        "warm run hits everything:\n{warm_stderr}"
    );
    assert!(
        warm_stderr.contains("0 IPET solve(s)"),
        "warm run re-solved nothing:\n{warm_stderr}"
    );

    // An uncached run of the same program prints the same analysis.
    let plain = wcet(&[program.to_str().unwrap()]);
    assert!(plain.status.success());
    assert_eq!(strip_timings(&plain.stdout), strip_timings(&warm.stdout));
    assert!(
        plain.stderr.is_empty(),
        "no cache chatter without --cache-dir"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_mode_analyzes_a_manifest_against_a_shared_cache() {
    let dir = std::env::temp_dir().join(format!("wcet-cli-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(
        dir.join("counter.s"),
        ".org 0x1000\nmain:\n li r1, 12\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n halt\n",
    )
    .expect("write counter");
    std::fs::write(
        dir.join("bounded.s"),
        ".org 0x1000\nmain:\n mov r1, r4\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n halt\n",
    )
    .expect("write bounded");
    std::fs::write(dir.join("bounded.ann"), "loop 0x1004 bound 32;\n").expect("write annots");
    // The same program twice: the second request replays the first's
    // artifacts within one batch run.
    std::fs::write(
        dir.join("requests.txt"),
        "# one request per line: <program.s> [annotations]\n\
         counter.s\n\
         bounded.s bounded.ann\n\
         counter.s\n",
    )
    .expect("write manifest");

    let cache_dir = dir.join("cache");
    let out = wcet(&[
        "batch",
        dir.join("requests.txt").to_str().unwrap(),
        "--cache-dir",
        cache_dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "batch run exits 0: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(
        stdout.matches("── batch: ").count(),
        3,
        "three request banners:\n{stdout}"
    );
    assert_eq!(
        stdout.matches("task WCET bound:").count(),
        3,
        "three analyses:\n{stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        stderr.contains("batch done: 3 request(s)"),
        "summary missing:\n{stderr}"
    );
    // counter.s appears twice; its single function replays on the repeat.
    assert!(
        stderr.contains("1/1 function artifact(s) hit"),
        "repeat request hits the shared cache:\n{stderr}"
    );

    // Batch without a manifest fails with a diagnostic.
    let bad = wcet(&["batch"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("manifest"));

    std::fs::remove_dir_all(&dir).ok();
}

/// `--check-only` stops every front end after the guideline findings:
/// batch mode prints them without the analysis section, as single-shot
/// runs and serve responses do.
#[test]
fn batch_check_only_prints_findings_without_the_analysis() {
    let dir = std::env::temp_dir().join(format!("wcet-cli-check-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(
        dir.join("counter.s"),
        ".org 0x1000\nmain:\n li r1, 12\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n halt\n",
    )
    .expect("write counter");
    std::fs::write(dir.join("requests.txt"), "counter.s\n").expect("write manifest");

    let out = wcet(&[
        "batch",
        dir.join("requests.txt").to_str().unwrap(),
        "--check-only",
    ]);
    assert!(out.status.success(), "batch run exits 0: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        stdout.contains("── guideline check ──"),
        "findings:\n{stdout}"
    );
    assert!(!stdout.contains("── analysis ──"), "no analysis:\n{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

/// The annotation-free corpus workloads through the binary: the
/// call-tree and context workloads analyze end to end from their
/// assembly sources, and `--context-depth 1` prints a strictly smaller
/// WCET headline than the merged default on both.
#[test]
fn corpus_workloads_analyze_via_cli_and_context_depth_tightens() {
    use wcet_predictability::core::workload;

    let dir = std::env::temp_dir().join(format!("wcet-cli-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let wcet_bound = |stdout: &[u8]| -> u64 {
        String::from_utf8_lossy(stdout)
            .lines()
            .find_map(|l| {
                l.strip_prefix("task WCET bound: ")?
                    .strip_suffix(" cycles")?
                    .parse()
                    .ok()
            })
            .expect("WCET headline present")
    };
    for w in [
        workload::call_tree_heavy(2, 3, &[]),
        workload::context_killer(),
    ] {
        let program = dir.join(format!("{}.s", w.name));
        std::fs::write(&program, &w.source).expect("write workload source");
        let merged = wcet(&[program.to_str().unwrap(), "--context-depth", "0"]);
        assert!(
            merged.status.success(),
            "{} analyzes at depth 0: {}",
            w.name,
            String::from_utf8_lossy(&merged.stderr)
        );
        let ctx = wcet(&[program.to_str().unwrap(), "--context-depth", "1"]);
        assert!(ctx.status.success(), "{} analyzes at depth 1", w.name);
        assert!(
            wcet_bound(&ctx.stdout) < wcet_bound(&merged.stdout),
            "{}: --context-depth 1 must print a smaller bound",
            w.name
        );
        // Depth 0 is the flag-free default.
        let plain = wcet(&[program.to_str().unwrap()]);
        assert!(plain.status.success());
        assert_eq!(wcet_bound(&plain.stdout), wcet_bound(&merged.stdout));
    }

    // --persistence on top of --caches --context-depth 1 must print a
    // strictly smaller bound on the persistence workload. The loop-bound
    // annotation is reconstructed inline (mirroring the workload's own
    // `bound 48`; drift only loosens this fixture's bound, which stays
    // sound) — this block smokes the CLI plumbing, the corpus-level
    // tightening itself is gated by tests/persistence.rs.
    {
        use wcet_predictability::core::workload;
        let w = workload::persistence_killer();
        let program = dir.join("persistence_killer.s");
        std::fs::write(&program, &w.source).expect("write workload source");
        let annots = dir.join("persistence_killer.annot");
        let header = w.image.symbol("loop").expect("loop label");
        std::fs::write(&annots, format!("loop {header} bound 48;\n")).expect("write annotations");
        let base = [
            program.to_str().unwrap(),
            "--annotations",
            annots.to_str().unwrap(),
            "--caches",
            "--context-depth",
            "1",
        ];
        let clobbered = wcet(&base);
        assert!(
            clobbered.status.success(),
            "persistence_killer analyzes: {}",
            String::from_utf8_lossy(&clobbered.stderr)
        );
        let mut with_persistence = base.to_vec();
        with_persistence.push("--persistence");
        let persistent = wcet(&with_persistence);
        assert!(persistent.status.success(), "--persistence analyzes");
        assert!(
            wcet_bound(&persistent.stdout) < wcet_bound(&clobbered.stdout),
            "--persistence must print a smaller bound"
        );
        // It works at every depth: at depth 0 it only ever refines.
        let depth0 = [&base[..4], &["--persistence"]].concat();
        let depth0 = wcet(&depth0);
        assert!(
            depth0.status.success(),
            "--persistence analyzes at depth 0: {}",
            String::from_utf8_lossy(&depth0.stderr)
        );
        let depth0_clobbered = wcet(&base[..4]);
        assert!(depth0_clobbered.status.success());
        assert!(wcet_bound(&depth0.stdout) <= wcet_bound(&depth0_clobbered.stdout));
    }

    // --persistence is validated against its prerequisite.
    let no_caches = wcet(&["prog.s", "--persistence", "--context-depth", "1"]);
    assert!(!no_caches.status.success());
    assert!(String::from_utf8_lossy(&no_caches.stderr).contains("--caches"));

    // The flag is validated.
    let bad = wcet(&["--context-depth"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("--context-depth"));
    let garbage = wcet(&["prog.s", "--context-depth", "lots"]);
    assert!(!garbage.status.success());
    assert!(String::from_utf8_lossy(&garbage.stderr).contains("invalid context depth"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyzes_an_assembly_file_end_to_end() {
    let dir = std::env::temp_dir().join(format!("wcet-cli-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let program = dir.join("countdown.s");
    std::fs::write(
        &program,
        ".org 0x1000\n\
         main:\n\
             li   r1, 10\n\
         loop:\n\
             subi r1, r1, 1\n\
             bne  r1, r0, loop\n\
             halt\n",
    )
    .expect("write program");

    // --caches --unroll exercises the peeled-CFG path symbolization
    // (regression: block ids from the unrolled CFG used to be looked up in
    // the original entry CFG and panic).
    let unrolled = wcet(&[program.to_str().unwrap(), "--caches", "--unroll"]);
    assert!(
        unrolled.status.success(),
        "--caches --unroll failed:\n{}",
        String::from_utf8_lossy(&unrolled.stderr)
    );
    assert!(String::from_utf8_lossy(&unrolled.stdout).contains("worst-case path:"));

    let out = wcet(&[program.to_str().unwrap(), "--run", "--disasm"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "analyze failed:\n{stdout}\n{stderr}");
    assert!(
        stdout.contains("task WCET bound:"),
        "no WCET headline:\n{stdout}"
    );
    assert!(
        stdout.contains("disassembly"),
        "disassembly listing missing:\n{stdout}"
    );
    assert!(
        stdout.contains("within bounds: true"),
        "observed run outside bounds:\n{stdout}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
