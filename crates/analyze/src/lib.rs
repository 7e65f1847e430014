//! `swip-analyze`: static verification and linting for simulator inputs.
//!
//! Simulation results are only as trustworthy as the artifacts fed in:
//! traces, the CFGs reconstructed from them, AsmDB insertion plans, and the
//! rewritten traces those plans produce. This crate re-proves the invariants
//! each downstream consumer assumes, *without running a simulation*, and
//! reports violations as structured diagnostics with stable rule ids.
//!
//! Six analysis families (rule catalog in `DESIGN.md` §8 and §14):
//!
//! * `decode` (`T001`–`T007`) — codec-level failures mapped to diagnostics.
//! * `trace` (`T010`–`T016`) — semantic lints on a decoded trace.
//! * `cfg` (`C001`–`C007`) — well-formedness of the reconstructed CFG.
//! * `plan` (`P001`–`P006`) — insertion-plan claims re-proved on the CFG.
//! * `rewrite` (`R001`–`R003`) — rewritten trace diffed against plan.
//! * `coverage` (`D001`–`D004`) — static prediction of each insertion's
//!   value (dead / redundant / late / clobbering), built on dominator
//!   trees ([`DomTree`]) and natural loops ([`LoopForest`]); opt-in via
//!   the `coverage` argument of either entry point.
//!
//! [`analyze_trace`] chains all post-decode families: it reconstructs the
//! CFG, builds a synthetic insertion plan (profiling the trace's line
//! transitions — no simulation), rewrites, and diffs, so every family runs
//! against every analyzed artifact. Entry point for files/streams is
//! [`analyze_read`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cfg_check;
mod coverage;
mod diag;
mod dominators;
mod loops;
mod plan_check;
mod predict;
mod rewrite_check;
mod trace_lint;

use std::collections::HashMap;
use std::io::Read;

use swip_asmdb::{plan_insertions, rewrite_trace, select_targets, Cfg};
use swip_trace::{DecodeError, Trace};

pub use cfg_check::check_cfg;
pub use coverage::{
    evaluate_plan, CoverageConfig, InsertionClass, PlanEvaluation, PredictedCoverage,
};
pub use diag::{Diagnostic, Location, Report, Severity};
pub use dominators::DomTree;
pub use loops::{LoopForest, NaturalLoop};
pub use plan_check::verify_plan;
pub use predict::{DivergenceThreshold, PredictError, PredictRow, PredictionDiff};
pub use rewrite_check::diff_rewrite;
pub use trace_lint::lint_trace;

/// Maximum diagnostics kept per rule id; the rest are summarized under a
/// single `A000` note so a corrupt multi-million-instruction trace cannot
/// produce an unbounded report.
pub const MAX_PER_RULE: usize = 100;

/// Maps a codec failure to its diagnostic (rules T001–T007).
pub fn decode_diagnostic(err: &DecodeError) -> Diagnostic {
    let rule = match err {
        DecodeError::BadMagic(_) => "T001",
        DecodeError::UnsupportedVersion(_) => "T002",
        DecodeError::BadTag(_) => "T003",
        DecodeError::BadRegister(_) => "T004",
        DecodeError::Io(_) => "T005",
        DecodeError::BadName => "T006",
        DecodeError::BadLength(_) => "T007",
    };
    Diagnostic::new(
        rule,
        Severity::Error,
        Location::None,
        format!("trace failed to decode: {err}"),
    )
}

/// Runs every post-decode analysis family on an in-memory trace, plus the
/// `coverage` family (rules `D001`–`D004`, with a [`PredictedCoverage`]
/// summary on the report) when `coverage` is set.
///
/// The `cfg`, `plan`, and `rewrite` families are skipped when the `trace`
/// family found errors (a discontinuous trace yields a meaningless CFG) or
/// the trace is empty.
pub fn analyze_trace(trace: &Trace, coverage: bool) -> Report {
    let mut families = vec!["trace"];
    let mut diags = lint_trace(trace);
    let clean = !diags.iter().any(|d| d.severity == Severity::Error);
    let mut summary = None;

    if clean && !trace.is_empty() {
        let cfg = Cfg::from_trace(trace);
        families.push("cfg");
        diags.extend(check_cfg(trace, &cfg));

        // Synthetic plan: profile line transitions as a stand-in for an L1-I
        // miss profile, then run the real planner. This keeps the analysis
        // static while exercising the plan and rewrite families on every
        // artifact with the production code paths.
        families.push("plan");
        let misses = line_transition_profile(trace);
        let targets = select_targets(&cfg, &misses, 2, 0.9, 256);
        let plan = plan_insertions(&cfg, &targets, 16, 96, 0.3, 2);
        let entry = trace
            .instructions()
            .first()
            .and_then(|i| cfg.block_of(i.pc));
        diags.extend(verify_plan(&cfg, entry, &plan));

        families.push("rewrite");
        let (rewritten, _) = rewrite_trace(trace, &plan);
        diags.extend(diff_rewrite(trace, &plan, &rewritten));
        // The rewritten trace must still be a structurally sound trace.
        diags.extend(
            lint_trace(&rewritten)
                .into_iter()
                .filter(|d| d.severity == Severity::Error),
        );

        if coverage {
            families.push("coverage");
            let eval = evaluate_plan(&cfg, entry, &plan, &CoverageConfig::default());
            diags.extend(eval.diagnostics);
            summary = Some(eval.coverage);
        }
    }

    let mut report = Report::new(trace.name(), families, cap_per_rule(diags));
    report.coverage = summary;
    report
}

/// Decodes a trace from `r` and analyzes it as [`analyze_trace`] does.
/// `subject` (usually the file path) labels the report. Decode failures
/// become a single-diagnostic report from the `decode` family.
pub fn analyze_read<R: Read>(r: R, subject: &str, coverage: bool) -> Report {
    match Trace::read_from(r) {
        Ok(trace) => {
            let mut report = analyze_trace(&trace, coverage);
            report.subject = subject.to_string();
            report.families.insert(0, "decode");
            report
        }
        Err(e) => Report::new(subject, vec!["decode"], vec![decode_diagnostic(&e)]),
    }
}

/// Per-line counts of how often execution *entered* the line (a transition
/// from a different cache line). Lines entered often are exactly the lines
/// an instruction-prefetch plan would target.
fn line_transition_profile(trace: &Trace) -> HashMap<u64, u64> {
    let mut profile: HashMap<u64, u64> = HashMap::new();
    let mut prev_line: Option<u64> = None;
    for i in trace.iter() {
        let line = i.pc.line().number();
        if prev_line != Some(line) {
            *profile.entry(line).or_insert(0) += 1;
        }
        prev_line = Some(line);
    }
    profile
}

/// Keeps at most [`MAX_PER_RULE`] diagnostics per rule, appending one `A000`
/// info note per truncated rule.
fn cap_per_rule(diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut kept: Vec<Diagnostic> = Vec::with_capacity(diags.len().min(512));
    let mut counts: HashMap<&'static str, usize> = HashMap::new();
    for d in diags {
        let n = counts.entry(d.rule).or_insert(0);
        *n += 1;
        if *n <= MAX_PER_RULE {
            kept.push(d);
        }
    }
    let mut truncated: Vec<(&'static str, usize)> = counts
        .into_iter()
        .filter(|&(_, n)| n > MAX_PER_RULE)
        .collect();
    truncated.sort_unstable();
    for (rule, n) in truncated {
        kept.push(Diagnostic::new(
            "A000",
            Severity::Info,
            Location::None,
            format!(
                "{} additional {rule} diagnostics suppressed",
                n - MAX_PER_RULE
            ),
        ));
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use swip_trace::TraceBuilder;
    use swip_types::{Addr, Instruction};

    #[test]
    fn generated_workload_analyzes_clean_of_errors() {
        let spec = swip_workloads::cvp1_suite(3000).remove(1); // a small crypto workload
        let trace = swip_workloads::generate(&spec);
        let report = analyze_trace(&trace, false);
        assert_eq!(report.errors(), 0, "{report}");
        assert_eq!(report.families, vec!["trace", "cfg", "plan", "rewrite"]);
    }

    #[test]
    fn coverage_family_classifies_every_insertion() {
        let spec = swip_workloads::cvp1_suite(3000).remove(1);
        let trace = swip_workloads::generate(&spec);
        let report = analyze_trace(&trace, true);
        assert_eq!(report.families.last(), Some(&"coverage"));
        let cov = report.coverage.clone().expect("coverage summary attached");
        assert_eq!(
            cov.sites,
            cov.useful_sites
                + cov.dead_sites
                + cov.redundant_sites
                + cov.late_sites
                + cov.clobbering_sites,
            "every insertion gets exactly one class"
        );
        assert_eq!(
            cov.dead_sites, 0,
            "plans built from an executed trace cannot contain dead insertions"
        );
        assert!(report.to_json().contains("\"coverage\""));
        // Opting out leaves the report exactly as before.
        let plain = analyze_trace(&trace, false);
        assert!(plain.coverage.is_none());
        assert!(!plain.families.contains(&"coverage"));
    }

    #[test]
    fn broken_trace_skips_downstream_families() {
        let t = Trace::from_instructions(
            "bad",
            vec![
                Instruction::alu(Addr::new(0x0)),
                Instruction::alu(Addr::new(0x900)),
            ],
        );
        let report = analyze_trace(&t, false);
        assert!(report.has_errors());
        assert_eq!(report.families, vec!["trace"]);
    }

    #[test]
    fn analyze_read_maps_decode_errors() {
        let report = analyze_read(&b"NOPE"[..], "mem", false);
        assert_eq!(report.families, vec!["decode"]);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].rule, "T001");
        assert!(report.has_errors());
    }

    #[test]
    fn analyze_read_roundtrip_is_clean() {
        let mut b = TraceBuilder::new("rt");
        for _ in 0..8 {
            b.set_pc(Addr::new(0x0));
            b.alu();
            b.cond_branch(Addr::new(0x0), true);
        }
        let mut bytes = Vec::new();
        b.finish().write_to(&mut bytes).unwrap();
        let report = analyze_read(&bytes[..], "rt.swip", false);
        assert_eq!(report.errors(), 0, "{report}");
        assert_eq!(report.subject, "rt.swip");
        assert_eq!(report.families[0], "decode");
    }

    #[test]
    fn per_rule_cap_truncates_with_note() {
        // 150 zero-size instructions at distinct PCs → 150 T013 candidates.
        let instrs: Vec<Instruction> = (0..150)
            .map(|i| Instruction::alu(Addr::new(i * 4)).with_size(0))
            .collect();
        // Zero size breaks continuity too; count only T013 here.
        let report = analyze_trace(&Trace::from_instructions("cap", instrs), false);
        let t013 = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == "T013")
            .count();
        assert_eq!(t013, MAX_PER_RULE);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.rule == "A000" && d.message.contains("T013")));
    }
}
