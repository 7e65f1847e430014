//! swip-report: structured observability for swip-fe runs.
//!
//! The bench harness emits seven TSV figures — numbers shaped for the
//! paper's plots, not for machines. This crate adds the machine-readable
//! layer next to them:
//!
//! * [`RunReport`] — a versioned JSON document carrying the run's
//!   configuration fingerprint, session work counters, and every
//!   cache/front-end/branch/backend counter per (workload, config)
//!   pair. Written as `report.json` beside the TSVs; everything the TSVs
//!   say is recomputable from it.
//! * [`ReportDiff`] — counter-level comparison of two reports, backing
//!   `swip report --diff a.json b.json`.
//! * [`to_chrome_trace`] — exports the cycle-sampled scenario timeline as
//!   Chrome trace-event JSON for `chrome://tracing` / Perfetto.
//! * [`PlanSpec`] — the wire form of an experiment plan (workloads ×
//!   configurations by name), the body `swip-serve` accepts on
//!   `POST /v1/jobs`.
//! * [`merge_plan_reports`] — reassembles sharded partial plan reports
//!   into one plan-order report, byte-identical to a single-node run;
//!   the reduce side of `swip-fleet`'s map-reduce.
//! * [`Json`] — the dependency-free JSON value type used for all of the
//!   above (the workspace is offline; no serde).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diff;
mod json;
mod merge;
mod plan;
mod run_report;
mod trace_event;

pub use diff::{CounterDelta, ReportDiff};
pub use json::{Json, JsonError};
pub use merge::{merge_plan_reports, MergeError};
pub use plan::{InsertionSpec, PlanSpec, PlanSpecError};
pub use run_report::{ConfigReport, ReportError, RunReport, WorkloadReport, SCHEMA_VERSION};
pub use trace_event::to_chrome_trace;
