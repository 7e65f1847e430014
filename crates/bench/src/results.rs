//! Per-workload experiment results assembled by the engine.

use swip_asmdb::RewriteReport;
use swip_core::SimReport;

use crate::ConfigId;

/// The simulation reports a plan produced for one workload, plus AsmDB's
/// bloat accounting when the plan ran the AsmDB pipeline.
///
/// Only the configurations named in the executed
/// [`ExperimentPlan`](crate::ExperimentPlan) are present; the accessors
/// panic (with the missing configuration's name) when asked for a report
/// the plan never ran, which is always a caller bug.
#[derive(Clone, Debug)]
pub struct WorkloadResults {
    pub(crate) name: String,
    pub(crate) bloat: Option<RewriteReport>,
    pub(crate) reports: [Option<SimReport>; 8],
    pub(crate) job_seconds: f64,
}

impl WorkloadResults {
    /// Workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The report for `id`, if the plan ran it.
    pub fn get(&self, id: ConfigId) -> Option<&SimReport> {
        self.reports[id.index()].as_ref()
    }

    /// The report for `id`.
    ///
    /// # Panics
    ///
    /// Panics if the executed plan did not include `id`.
    pub fn report(&self, id: ConfigId) -> &SimReport {
        self.get(id).unwrap_or_else(|| {
            panic!(
                "configuration {} was not part of the executed plan for {}",
                id.label(),
                self.name
            )
        })
    }

    /// AsmDB rewrite accounting (Fig 7).
    ///
    /// # Panics
    ///
    /// Panics if the executed plan included no AsmDB configuration.
    pub fn bloat(&self) -> &RewriteReport {
        self.bloat.as_ref().unwrap_or_else(|| {
            panic!(
                "plan ran no AsmDB configuration for {}, so no bloat report exists",
                self.name
            )
        })
    }

    /// Total simulation seconds spent on this workload's jobs.
    pub fn job_seconds(&self) -> f64 {
        self.job_seconds
    }

    /// Conservative (2-entry FTQ) baseline.
    pub fn base(&self) -> &SimReport {
        self.report(ConfigId::Base)
    }

    /// AsmDB on the conservative front-end.
    pub fn asmdb_cons(&self) -> &SimReport {
        self.report(ConfigId::AsmdbCons)
    }

    /// AsmDB, no insertion overhead, conservative front-end.
    pub fn asmdb_cons_noov(&self) -> &SimReport {
        self.report(ConfigId::AsmdbConsNoov)
    }

    /// Industry-standard FDP (24-entry FTQ).
    pub fn fdp(&self) -> &SimReport {
        self.report(ConfigId::Fdp)
    }

    /// AsmDB on the industry-standard FDP.
    pub fn asmdb_fdp(&self) -> &SimReport {
        self.report(ConfigId::AsmdbFdp)
    }

    /// AsmDB, no insertion overhead, industry-standard FDP.
    pub fn asmdb_fdp_noov(&self) -> &SimReport {
        self.report(ConfigId::AsmdbFdpNoov)
    }

    /// The five Figure-1 series as speedups over the conservative baseline,
    /// in the paper's legend order.
    pub fn fig1_series(&self) -> [(&'static str, f64); 5] {
        let base = self.base();
        [
            ("AsmDB", self.asmdb_cons().speedup_over(base)),
            (
                "AsmDB-NoInsertionOverhead",
                self.asmdb_cons_noov().speedup_over(base),
            ),
            ("FDP(24-Entry-FTQ)", self.fdp().speedup_over(base)),
            ("AsmDB+FDP", self.asmdb_fdp().speedup_over(base)),
            (
                "AsmDB+FDP-NoInsertionOverhead",
                self.asmdb_fdp_noov().speedup_over(base),
            ),
        ]
    }
}
