//! Building and emitting the structured [`RunReport`] for a bench run.
//!
//! Every `swip bench` sweep writes `target/experiments/report.json` next
//! to the figure TSVs: the same results, but with every counter flattened
//! under stable names (see [`swip_report::ConfigReport`]), the session's
//! cache/work counters, and a configuration fingerprint so two runs of the
//! same experiment are directly diffable via `swip report --diff`.

use std::fs;
use std::io;
use std::path::PathBuf;

use swip_report::{ConfigReport, RunReport, WorkloadReport};

use crate::{ConfigId, Session, WorkloadResults};

/// Flattens one [`WorkloadResults`] into its report entry; `job_seconds`
/// is supplied by the caller because the two report flavors disagree on
/// whether wall-clock belongs in the document. When the results include an
/// AsmDB configuration, the entry also carries the statically predicted
/// coverage of the session's insertion plan (see [`predicted_coverage`]).
fn workload_report(session: &Session, r: &WorkloadResults, job_seconds: f64) -> WorkloadReport {
    let configs: Vec<ConfigReport> = ConfigId::ALL
        .iter()
        .filter_map(|&id| {
            r.get(id).map(|sim| {
                let mut c = ConfigReport::from_sim(id.label(), sim);
                c.prefetcher = id.prefetcher().label().to_string();
                c
            })
        })
        .collect();
    let ran_asmdb = ConfigId::ALL
        .iter()
        .any(|&id| id.needs_asmdb() && r.get(id).is_some());
    WorkloadReport {
        name: r.name().to_string(),
        job_seconds,
        coverage: if ran_asmdb {
            predicted_coverage(session, r.name())
        } else {
            Vec::new()
        },
        configs,
    }
}

/// The [`PredictedCoverage`](swip_analyze::PredictedCoverage) counter
/// pairs of the session's AsmDB plan for `workload`, evaluated once per
/// session ([`Session::plan_coverage`]). Empty when `workload` is not in
/// the session's suite.
fn predicted_coverage(session: &Session, workload: &str) -> Vec<(String, u64)> {
    session
        .workloads()
        .iter()
        .find(|w| w.name == workload)
        .map_or_else(Vec::new, |spec| {
            session.plan_coverage(spec).coverage.counter_pairs()
        })
}

/// The flattened session cache/work counters, as stored in a
/// [`RunReport`]'s `session` block and served by `swip-serve`'s
/// `/metrics` endpoint.
pub fn session_counter_pairs(session: &Session) -> Vec<(String, u64)> {
    let c = session.counters();
    vec![
        ("trace_generations".into(), c.trace_generations),
        ("trace_cache_hits".into(), c.trace_cache_hits),
        ("trace_disk_hits".into(), c.trace_disk_hits),
        ("asmdb_profiles".into(), c.asmdb_profiles),
        ("asmdb_cache_hits".into(), c.asmdb_cache_hits),
        ("sim_runs".into(), c.sim_runs),
    ]
}

/// Assembles the [`RunReport`] for a finished sweep: run knobs from the
/// session, one [`ConfigReport`] per executed (workload, configuration)
/// job, the session counters, and the sealed fingerprint.
pub fn build_run_report(session: &Session, figure: &str, results: &[WorkloadResults]) -> RunReport {
    let mut report = RunReport::new(
        figure,
        session.instructions(),
        session.stride() as u64,
        session.threads() as u64,
    );
    report.session = session_counter_pairs(session);
    for r in results {
        report
            .workloads
            .push(workload_report(session, r, r.job_seconds()));
    }
    report.seal();
    report
}

/// Assembles the *deterministic* [`RunReport`] for one plan execution —
/// the document `swip-serve` stores for a finished job.
///
/// Unlike [`build_run_report`], this flavor carries only the measurement:
/// the session counter block is empty (a warm server's cumulative cache
/// counters describe the process, not the job — they live on `/metrics`)
/// and `job_seconds` is zeroed (wall-clock lives on the job resource).
/// Two executions of the same plan at the same knobs therefore produce
/// **byte-identical** JSON, whether served or run offline — the property
/// the serve integration tests pin.
pub fn build_plan_report(session: &Session, results: &[WorkloadResults]) -> RunReport {
    let mut report = RunReport::new(
        "plan",
        session.instructions(),
        session.stride() as u64,
        session.threads() as u64,
    );
    for r in results {
        report.workloads.push(workload_report(session, r, 0.0));
    }
    report.seal();
    report
}

/// Writes the run report as pretty JSON to
/// `target/experiments/report.json`, returning the path.
///
/// # Errors
///
/// Propagates any I/O failure, like [`emit_tsv`](crate::emit_tsv).
pub fn emit_report(
    session: &Session,
    figure: &str,
    results: &[WorkloadResults],
) -> io::Result<PathBuf> {
    let report = build_run_report(session, figure, results);
    let dir = crate::out_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join("report.json");
    fs::write(&path, report.to_json())?;
    eprintln!("[wrote {}]", path.display());
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExperimentPlan, SessionBuilder};
    use swip_report::RunReport;

    fn small_session() -> Session {
        SessionBuilder::new()
            .instructions(20_000)
            .stride(48)
            .threads(2)
            .build()
            .unwrap()
    }

    #[test]
    fn run_report_mirrors_the_results() {
        let session = small_session();
        let plan = ExperimentPlan::all_figures(session.workloads());
        let results = session.run(&plan).unwrap();
        let report = build_run_report(&session, "all", &results);

        assert_eq!(report.instructions, 20_000);
        assert_eq!(report.stride, 48);
        assert_eq!(report.session_counter("sim_runs"), Some(6));
        assert_eq!(report.session_counter("trace_generations"), Some(1));
        assert_eq!(report.workloads.len(), results.len());

        let r = &results[0];
        let w = report.workload(r.name()).unwrap();
        assert_eq!(w.configs.len(), 6);
        for id in ConfigId::PAPER {
            let sim = r.report(id);
            let c = w.config(id.label()).unwrap();
            assert_eq!(c.prefetcher, id.prefetcher().label());
            assert_eq!(c.counter("cycles"), Some(sim.cycles));
            assert_eq!(c.counter("instructions"), Some(sim.instructions));
            assert_eq!(
                c.counter("ftq.head_stall_cycles"),
                Some(sim.frontend.head_stall_cycles.get())
            );
            assert_eq!(c.value("effective_ipc"), Some(sim.effective_ipc));
        }
        // And it survives the JSON round trip with the fingerprint intact.
        let back = RunReport::from_json_str(&report.to_json()).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.compute_fingerprint(), back.fingerprint);
    }

    #[test]
    fn plan_reports_are_deterministic_across_sessions() {
        let plan_for = |s: &Session| ExperimentPlan::all_figures(s.workloads());

        // A warm session (second run hits every memo) ...
        let warm = small_session();
        let _ = warm.run(&plan_for(&warm)).unwrap();
        let warm_results = warm.run(&plan_for(&warm)).unwrap();
        let warm_report = build_plan_report(&warm, &warm_results);

        // ... and a cold one produce byte-identical plan reports.
        let cold = small_session();
        let cold_results = cold.run(&plan_for(&cold)).unwrap();
        let cold_report = build_plan_report(&cold, &cold_results);

        assert_eq!(warm_report.to_json(), cold_report.to_json());
        assert!(warm_report.session.is_empty());
        assert_eq!(warm_report.workloads[0].job_seconds, 0.0);
        assert_eq!(warm_report.figure, "plan");
        // The volatile flavor, by contrast, differs in its session block.
        assert_ne!(
            build_run_report(&warm, "all", &warm_results).session,
            build_run_report(&cold, "all", &cold_results).session
        );
    }

    #[test]
    fn coverage_rides_along_only_on_asmdb_sweeps() {
        let session = small_session();
        let all = ExperimentPlan::all_figures(session.workloads());
        let results = session.run(&all).unwrap();
        let report = build_run_report(&session, "all", &results);
        for w in &report.workloads {
            assert!(!w.coverage.is_empty(), "{} has no coverage", w.name);
            let sites = w.coverage_counter("sites").unwrap();
            // The classes partition the sites (DESIGN.md §14). A small
            // session can legitimately plan zero insertions; the block is
            // still embedded so `--predict-vs` can report "nothing ran".
            let sum: u64 = [
                "useful_sites",
                "dead_sites",
                "redundant_sites",
                "late_sites",
                "clobbering_sites",
            ]
            .iter()
            .map(|n| w.coverage_counter(n).unwrap())
            .sum();
            assert_eq!(sum, sites, "{}", w.name);
            // Trace-derived AsmDB plans anchor on executed blocks, so the
            // static evaluator must never call one dead.
            assert_eq!(w.coverage_counter("dead_sites"), Some(0));
        }
        // Base-only sweeps never touch the AsmDB pipeline, so no coverage.
        let base = ExperimentPlan::new(session.workloads(), &[ConfigId::Base, ConfigId::Fdp]);
        let results = session.run(&base).unwrap();
        let report = build_run_report(&session, "fig8", &results);
        assert!(report.workloads.iter().all(|w| w.coverage.is_empty()));
        assert!(!report.to_json().contains("\"coverage\""));
    }

    #[test]
    fn partial_plans_report_only_executed_configs() {
        let session = small_session();
        let plan = ExperimentPlan::new(session.workloads(), &crate::figures::FIG8_CONFIGS);
        let results = session.run(&plan).unwrap();
        let report = build_run_report(&session, "fig8", &results);
        let w = &report.workloads[0];
        assert_eq!(w.configs.len(), 2);
        assert!(w.config(ConfigId::Base.label()).is_some());
        assert!(w.config(ConfigId::Fdp.label()).is_some());
        assert!(w.config(ConfigId::AsmdbFdp.label()).is_none());
    }
}
