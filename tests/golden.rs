//! Golden snapshot tests for the `wcet` report rendering: one canonical
//! text report per named workload, checked into `tests/golden/`. Any
//! formatting or result drift fails here; regenerate *deliberately* with
//!
//! ```text
//! WCET_BLESS=1 cargo test --test golden
//! ```
//!
//! and review the diff like any other code change. Timings are zeroed
//! before rendering (they are real clocks); everything else — phase
//! counters, guideline findings, bounds, mode tables, the symbolized
//! worst-case path — is pinned byte for byte.

use std::fmt::Write as _;
use std::path::PathBuf;

use wcet_predictability::core::analyzer::{AnalyzerConfig, WcetAnalyzer};
use wcet_predictability::core::workload::{self, Workload};
use wcet_predictability::render;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The canonical report text of one workload under its ISA's default
/// machine (its annotations applied), with clocks zeroed. House
/// workloads analyze under the exact pre-multi-ISA configuration, so
/// their snapshots are pinned byte for byte across the ISA refactor.
fn canonical_report(w: &Workload) -> String {
    let config = AnalyzerConfig {
        annotations: w.annotations.clone(),
        ..AnalyzerConfig::for_isa(w.image.isa)
    };
    let mut report = WcetAnalyzer::with_config(config)
        .analyze(&w.image)
        .unwrap_or_else(|e| panic!("workload {} analyzes: {e}", w.name));
    report.trace.phase_times = Default::default();
    report.trace.phase_work_times = Default::default();
    let mut out = String::new();
    let _ = writeln!(out, "# workload: {} — {}", w.name, w.description);
    out.push_str(&render::render_report(&w.image, &report, false));
    out
}

#[test]
fn golden_reports_for_all_workloads() {
    let bless = std::env::var_os("WCET_BLESS").is_some();
    let dir = golden_dir();
    if bless {
        std::fs::create_dir_all(&dir).expect("golden dir creatable");
    }
    let mut drifted = Vec::new();
    for w in workload::corpus() {
        let rendered = canonical_report(&w);
        let path = dir.join(format!("{}.txt", w.name));
        if bless {
            std::fs::write(&path, &rendered).expect("golden file writable");
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!(
                "missing golden snapshot {}; regenerate with WCET_BLESS=1 cargo test --test golden",
                path.display()
            )
        });
        if rendered != expected {
            drifted.push(format!(
                "{}: rendered report differs from {}\n--- expected\n{expected}\n--- rendered\n{rendered}",
                w.name,
                path.display()
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "{} golden snapshot(s) drifted (regenerate deliberately with WCET_BLESS=1):\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}

#[test]
fn golden_reports_for_rv32i_ports() {
    // The cross-ISA snapshots: same corpus sources, RV32I backend —
    // different encodings, timing model, and therefore bounds, pinned in
    // their own `<name>.rv32i.txt` files next to the house snapshots.
    let bless = std::env::var_os("WCET_BLESS").is_some();
    let dir = golden_dir();
    if bless {
        std::fs::create_dir_all(&dir).expect("golden dir creatable");
    }
    let mut drifted = Vec::new();
    for w in workload::rv32i_corpus() {
        let rendered = canonical_report(&w);
        let path = dir.join(format!("{}.rv32i.txt", w.name));
        if bless {
            std::fs::write(&path, &rendered).expect("golden file writable");
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!(
                "missing golden snapshot {}; regenerate with WCET_BLESS=1 cargo test --test golden",
                path.display()
            )
        });
        if rendered != expected {
            drifted.push(format!(
                "{}: rendered report differs from {}\n--- expected\n{expected}\n--- rendered\n{rendered}",
                w.name,
                path.display()
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "{} rv32i golden snapshot(s) drifted (regenerate deliberately with WCET_BLESS=1):\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}

#[test]
fn golden_corpus_is_exactly_the_checked_in_set() {
    if std::env::var_os("WCET_BLESS").is_some() {
        // The blessing test may still be writing files concurrently.
        return;
    }
    // A snapshot on disk without a generating workload is dead weight —
    // catch removals in both directions.
    let mut expected: Vec<String> = workload::corpus()
        .iter()
        .map(|w| format!("{}.txt", w.name))
        .chain(
            workload::rv32i_corpus()
                .iter()
                .map(|w| format!("{}.rv32i.txt", w.name)),
        )
        .collect();
    expected.sort();
    let mut on_disk: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("golden dir exists (bless once with WCET_BLESS=1)")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    on_disk.sort();
    assert_eq!(on_disk, expected);
}
