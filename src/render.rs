//! Canonical text rendering of an analysis report.
//!
//! This is the `wcet` CLI's human-readable output, factored into the
//! library so the golden snapshot tests pin the exact bytes: formatting
//! drift now fails a test (regenerate deliberately with `WCET_BLESS=1`)
//! instead of slipping into production output unnoticed. The incremental
//! engine's byte-identity guarantee is stated over this rendering, which
//! is why cache statistics are *not* part of it — they go to stderr.

use std::fmt::Write as _;

use wcet_core::analyzer::AnalysisReport;
use wcet_isa::Image;

/// Renders the guideline-check section, when checking ran.
#[must_use]
pub fn render_guidelines(report: &AnalysisReport) -> String {
    let mut out = String::new();
    if let Some(guidelines) = &report.guidelines {
        out.push_str("── guideline check ──\n");
        let _ = write!(out, "{guidelines}");
        out.push('\n');
    }
    out
}

/// Renders the analysis section: phase trace, task bounds, per-mode
/// bounds, and the symbolized worst-case path.
#[must_use]
pub fn render_analysis(image: &Image, report: &AnalysisReport) -> String {
    let mut out = String::new();
    out.push_str("── analysis ──\n");
    let _ = writeln!(out, "{}", report.trace);
    out.push('\n');
    let _ = writeln!(out, "task WCET bound: {} cycles", report.wcet_cycles);
    let _ = writeln!(out, "task BCET bound: {} cycles", report.bcet_cycles);
    if report.mode_wcet.len() > 1 {
        out.push('\n');
        out.push_str("── per-mode WCET bounds ──\n");
        for (mode, wcet) in &report.mode_wcet {
            let _ = writeln!(
                out,
                "  {:<12} {wcet} cycles",
                mode.as_deref().unwrap_or("(global)")
            );
        }
    }

    // The worst-case path as a symbolized block trace (abbreviated). Use
    // the CFG the path was computed on: under --unroll that is the peeled
    // copy, whose ids exceed the original entry CFG's range.
    let entry_cfg = report.analyzed_entry_cfg();
    let path_blocks: Vec<String> = report
        .worst_path
        .iter()
        .take(24)
        .map(|&b| {
            let start = entry_cfg.block(b).start;
            image
                .symbol_at(start)
                .map_or_else(|| start.to_string(), str::to_owned)
        })
        .collect();
    if !path_blocks.is_empty() {
        out.push('\n');
        let _ = writeln!(
            out,
            "worst-case path: {}{}",
            path_blocks.join(" → "),
            if report.worst_path.len() > 24 {
                " → …"
            } else {
                ""
            }
        );
    }
    out
}

/// The full report rendering: guidelines (if any), a blank separator,
/// then the analysis section — exactly what `wcet <program.s>`, `wcet
/// batch`, and `wcet serve` print per program. `check_only` stops after
/// the findings when there are any. Timings inside the phase trace are
/// real clocks; golden tests zero `report.trace.phase_times`/
/// `phase_work_times` before rendering.
#[must_use]
pub fn render_report(image: &Image, report: &AnalysisReport, check_only: bool) -> String {
    let mut out = render_guidelines(report);
    if report.guidelines.is_some() {
        out.push('\n');
        if check_only {
            return out;
        }
    }
    out.push_str(&render_analysis(image, report));
    out
}
