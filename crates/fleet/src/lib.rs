//! swip-fleet: shard experiment plans across `swip serve` workers.
//!
//! A fleet run is a deterministic map-reduce over simulation jobs. The
//! **map** side leans on a property the engine already guarantees: every
//! (workload, configuration) cell of an
//! [`ExperimentPlan`] is independent, and
//! `build_plan_report` output is byte-identical no matter which process
//! computed it. The coordinator therefore shards a plan into single-cell
//! jobs ([`ExperimentPlan::cells`]),
//! dispatches them to whichever registered worker is free over the
//! keep-alive HTTP client, and collects partial `RunReport`s as they
//! finish — in whatever order the fleet happens to produce them.
//!
//! The **reduce** side is
//! [`merge_plan_reports`](swip_report::merge_plan_reports): partials are
//! reassembled in plan order, so the merged report is byte-identical to
//! a single-node offline run of the same plan at the same knobs.
//!
//! Robustness is first-class:
//!
//! * every shard has a deadline ([`FleetConfig::shard_timeout`]) and a
//!   bounded retry budget with exponential backoff;
//! * a connection failure triggers a one-shot `/healthz` probe — a
//!   worker that fails the probe is declared **dead**, its in-flight
//!   shard is re-queued *without* charging a retry, and its agent
//!   thread exits, so the remaining workers absorb the load;
//! * the sweep completes as long as one worker lives; only a shard that
//!   exhausts its retry budget on live workers, or the death of every
//!   worker, fails the run.
//!
//! Only plan cells and partial reports cross the wire. A trace is a pure
//! function of its workload spec, so each worker generates the traces
//! its shards resolve, exactly as an offline run of the same knobs would.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::time::Duration;

use swip_bench::ExperimentPlan;
use swip_report::{MergeError, RunReport};

mod coordinator;

pub use coordinator::run_plan;

/// Coordinator knobs: the worker set and the retry/timeout policy.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Worker addresses (`host:port`), as accepted by the serve client.
    pub workers: Vec<String>,
    /// Wall-clock budget for one shard attempt (submit through report
    /// fetch). A shard past its deadline is retried elsewhere.
    pub shard_timeout: Duration,
    /// Attempts per shard before the run fails (dead-worker re-dispatch
    /// does not count against this budget).
    pub max_attempts: u32,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: Vec::new(),
            shard_timeout: Duration::from_secs(120),
            max_attempts: 3,
        }
    }
}

/// Why a fleet run failed.
#[derive(Debug)]
pub enum FleetError {
    /// The plan has no (workload, config) cells to run.
    EmptyPlan,
    /// No configured worker answered its registration `/healthz` probe.
    NoWorkers {
        /// How many workers were configured.
        configured: usize,
    },
    /// A shard exhausted its retry budget on live workers.
    ShardFailed {
        /// Workload of the failed cell.
        workload: String,
        /// Config label of the failed cell.
        config: String,
        /// Attempts consumed.
        attempts: u32,
        /// The last attempt's error.
        last_error: String,
    },
    /// Every worker died before the sweep finished.
    AllWorkersDead {
        /// Shards completed before the fleet went dark.
        completed: usize,
        /// Total shards in the plan.
        total: usize,
    },
    /// The collected partials could not be merged.
    Merge(MergeError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::EmptyPlan => write!(f, "plan has no cells to shard"),
            FleetError::NoWorkers { configured } => write!(
                f,
                "none of the {configured} configured workers answered /healthz"
            ),
            FleetError::ShardFailed {
                workload,
                config,
                attempts,
                last_error,
            } => write!(
                f,
                "shard ({workload}, {config}) failed after {attempts} attempts: {last_error}"
            ),
            FleetError::AllWorkersDead { completed, total } => write!(
                f,
                "all workers died with {completed}/{total} shards complete"
            ),
            FleetError::Merge(e) => write!(f, "merging partial reports: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Merge(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MergeError> for FleetError {
    fn from(e: MergeError) -> Self {
        FleetError::Merge(e)
    }
}

/// One worker's contribution to a finished run.
#[derive(Clone, Debug)]
pub struct WorkerStats {
    /// The worker's address.
    pub addr: String,
    /// Shards this worker completed.
    pub shards_done: usize,
    /// Whether the worker was declared dead mid-sweep.
    pub dead: bool,
}

/// Aggregate telemetry for a finished run.
#[derive(Clone, Debug)]
pub struct FleetStats {
    /// Total shards in the plan.
    pub shards: usize,
    /// Shards re-queued because their worker died mid-flight.
    pub redispatches: u64,
    /// Retry attempts charged against shard budgets.
    pub retries: u64,
    /// Per-worker breakdown (registration order).
    pub workers: Vec<WorkerStats>,
}

/// A successful fleet run: the merged report plus telemetry.
#[derive(Clone, Debug)]
pub struct FleetRun {
    /// The merged plan report, byte-identical to a single-node run.
    pub report: RunReport,
    /// How the fleet got there.
    pub stats: FleetStats,
}

/// The plan's deterministic shape for the merge: workload names in plan
/// order, each with its config labels in canonical order.
pub fn plan_order(plan: &ExperimentPlan) -> Vec<(String, Vec<String>)> {
    let configs: Vec<String> = plan
        .configs()
        .iter()
        .map(|c| c.label().to_string())
        .collect();
    plan.workloads()
        .iter()
        .map(|w| (w.name.clone(), configs.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use swip_bench::{ConfigId, SessionBuilder};

    #[test]
    fn plan_order_mirrors_cells() {
        let session = SessionBuilder::new()
            .instructions(2_000)
            .stride(16)
            .build()
            .unwrap();
        let plan = ExperimentPlan::new(session.workloads(), &[ConfigId::Base, ConfigId::Fdp]);
        let order = plan_order(&plan);
        assert_eq!(order.len(), plan.workloads().len());
        let flattened: Vec<(String, String)> = order
            .iter()
            .flat_map(|(w, cs)| cs.iter().map(move |c| (w.clone(), c.clone())))
            .collect();
        assert_eq!(flattened, plan.cells());
    }

    #[test]
    fn errors_render_usable_messages() {
        let e = FleetError::ShardFailed {
            workload: "w".into(),
            config: "c".into(),
            attempts: 3,
            last_error: "boom".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("(w, c)") && msg.contains("3 attempts") && msg.contains("boom"));
        assert!(FleetError::NoWorkers { configured: 2 }
            .to_string()
            .contains('2'));
        assert!(FleetError::AllWorkersDead {
            completed: 4,
            total: 18
        }
        .to_string()
        .contains("4/18"));
    }
}
