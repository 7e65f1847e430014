//! The experiment engine that regenerates every table and figure of the
//! paper.
//!
//! # The Session API
//!
//! Experiments are described by an [`ExperimentPlan`] — a deduplicated
//! matrix of workloads × [`ConfigId`] configurations — and executed by a
//! [`Session`] built via [`SessionBuilder`]:
//!
//! ```no_run
//! use swip_bench::{ExperimentPlan, SessionBuilder};
//!
//! let session = SessionBuilder::new()
//!     .instructions(300_000)
//!     .threads(4)
//!     .build()?;
//! let plan = ExperimentPlan::all_figures(session.workloads());
//! let results = session.run(&plan)?;
//! for r in &results {
//!     println!("{}: AsmDB+FDP {:.3}x", r.name(), r.asmdb_fdp().speedup_over(r.base()));
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Independent (workload, configuration) jobs run on a self-scheduling
//! `std::thread` pool; generated traces and AsmDB pipeline outputs are
//! memoized on the session, so the six paper configurations share **one**
//! trace generation and **one** profile pass per workload (observable via
//! [`Session::counters`]). Results stream back in deterministic plan
//! order regardless of thread count.
//!
//! The paper's six simulation configurations (Figure 1):
//!
//! 1. conservative baseline (2-entry FTQ FDP),
//! 2. AsmDB on the conservative front-end,
//! 3. AsmDB with no insertion overhead on the conservative front-end,
//! 4. industry-standard FDP (24-entry FTQ),
//! 5. AsmDB on the industry-standard FDP,
//! 6. AsmDB with no insertion overhead on the industry-standard FDP.
//!
//! Beyond the paper six, the prefetcher zoo ([`ConfigId::Mana`],
//! [`ConfigId::ShadowBtb`]) runs hardware instruction prefetchers behind
//! the same plan machinery; `swip bench --prefetcher NAME` (or
//! `--figure prefetchers`) sweeps the zoo on the industry-standard
//! front-end and emits the Fig-9-style comparison TSV
//! ([`figures::emit_prefetchers`]).
//!
//! Every experiment is registered by name in [`figures::FIGURES`] and
//! launched with `swip bench --figure NAME` ([`figures::run_figure`]):
//! the paper's figures (`table1`, `fig1`, `fig7` … `fig11`, `scenarios`;
//! `all` produces the whole single-sweep evaluation at once), the
//! prefetcher zoo, and the ablations and §VI extensions. Each prints its
//! TSV rows to stdout and mirrors them into
//! `target/experiments/<name>.tsv`. Scale knobs are explicit on
//! [`SessionBuilder`] and the `swip bench` flags.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::PathBuf;

mod config;
mod engine;
pub mod figures;
mod plan;
mod report;
mod results;
mod session;

pub use config::{AsmdbTuning, ConfigId, ConfigParseError};
pub use engine::EngineError;
pub use plan::{ExperimentPlan, PlanError};
pub use report::{build_plan_report, build_run_report, emit_report, session_counter_pairs};
pub use results::WorkloadResults;
pub use session::{BuildError, Session, SessionBuilder, SessionCounters};

/// Any failure an experiment can hit: invalid session knobs, a
/// panicking job, an I/O error while emitting TSVs, or an unknown figure
/// name.
#[derive(Debug)]
pub enum BenchError {
    /// Session construction was rejected.
    Build(BuildError),
    /// A job panicked on the worker pool.
    Engine(EngineError),
    /// Writing an experiment TSV failed.
    Io(io::Error),
    /// `swip bench --figure NAME` named a figure that does not exist.
    UnknownFigure(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Build(e) => write!(f, "invalid session: {e}"),
            BenchError::Engine(e) => write!(f, "{e}"),
            BenchError::Io(e) => write!(f, "could not write experiment output: {e}"),
            BenchError::UnknownFigure(name) => {
                let names: Vec<&str> = figures::FIGURES.iter().map(|&(n, _)| n).collect();
                let names = names.join(", ");
                write!(f, "unknown figure {name:?} (expected one of: {names})")
            }
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Build(e) => Some(e),
            BenchError::Engine(e) => Some(e),
            BenchError::Io(e) => Some(e),
            BenchError::UnknownFigure(_) => None,
        }
    }
}

impl From<BuildError> for BenchError {
    fn from(e: BuildError) -> Self {
        BenchError::Build(e)
    }
}

impl From<EngineError> for BenchError {
    fn from(e: EngineError) -> Self {
        BenchError::Engine(e)
    }
}

impl From<io::Error> for BenchError {
    fn from(e: io::Error) -> Self {
        BenchError::Io(e)
    }
}

/// The output directory for experiment TSVs (`target/experiments`).
///
/// The directory is created by [`emit_tsv`], not here.
pub fn out_dir() -> PathBuf {
    PathBuf::from("target/experiments")
}

/// Writes TSV `rows` (with `header`) to stdout and to
/// `target/experiments/<name>.tsv`, returning the file path.
///
/// # Errors
///
/// Propagates any I/O failure creating or writing the file, so
/// `swip bench` exits nonzero instead of silently dropping output.
pub fn emit_tsv(name: &str, header: &str, rows: &[String]) -> io::Result<PathBuf> {
    println!("{header}");
    for r in rows {
        println!("{r}");
    }
    let dir = out_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.tsv"));
    let mut f = fs::File::create(&path)?;
    writeln!(f, "{header}")?;
    for r in rows {
        writeln!(f, "{r}")?;
    }
    f.flush()?;
    eprintln!("[wrote {}]", path.display());
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_configs_run_end_to_end() {
        let session = SessionBuilder::new()
            .instructions(20_000)
            .stride(48)
            .threads(2)
            .build()
            .unwrap();
        let plan = ExperimentPlan::all_figures(session.workloads());
        assert_eq!(plan.job_count(), 6);
        let results = session.run(&plan).unwrap();
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert!(r.base().completed && r.fdp().completed);
        assert!(r.asmdb_cons().completed && r.asmdb_fdp().completed);
        assert!(r.asmdb_cons_noov().completed && r.asmdb_fdp_noov().completed);
        for (name, s) in r.fig1_series() {
            assert!(s > 0.0, "{name} speedup must be positive");
        }
        // One generation + one profile, despite six jobs racing.
        let c = session.counters();
        assert_eq!(c.trace_generations, 1);
        assert_eq!(c.asmdb_profiles, 1);
        assert_eq!(c.sim_runs, 6);
    }
}
