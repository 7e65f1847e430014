//! Static plan admission for `POST /v1/jobs` (coverage family D,
//! DESIGN.md §14).
//!
//! Before a submission contends for a queue slot, its prefetch plan is
//! evaluated against each selected workload's reconstructed CFG with
//! `swip-analyze`'s coverage rules. Two plans can be in play:
//!
//! * **custom insertions** carried by the spec's `insertions` key —
//!   evaluated verbatim on every submission (they are the client's claim,
//!   so they change per request); and
//! * the **session's own AsmDB plan**, when the job will run an AsmDB
//!   configuration — evaluated once per workload by
//!   [`Session::plan_coverage`], which the run report's predicted
//!   coverage shares, since the session's plans are immutable for the
//!   life of the process.
//!
//! A plan tripping a *fatal* rule (`D001`: the prefetch provably can never
//! fire usefully) is rejected with HTTP 400 and the rule ids before it
//! ever occupies queue capacity — the static analogue of the resolver's
//! unknown-name 400s. Warning-level classes (redundant / late /
//! clobbering) only shape the report's predicted coverage; they never
//! refuse a job.

use std::collections::HashSet;

use swip_analyze::PlanEvaluation;
use swip_asmdb::{Insertion, Plan};
use swip_bench::{ExperimentPlan, Session};
use swip_report::InsertionSpec;
use swip_types::Addr;
use swip_workloads::WorkloadSpec;

/// A rejected submission: which workload tripped which fatal rules.
pub(crate) struct AdmissionRejection {
    /// The workload whose CFG refuted the plan.
    pub workload: String,
    /// Which plan was refuted (`"custom insertions"` / `"session plan"`).
    pub what: &'static str,
    /// The fatal rule ids, sorted and deduplicated.
    pub rules: Vec<String>,
}

/// Statically admits `plan` (plus any custom `insertions`) against every
/// selected workload.
///
/// # Errors
///
/// The first [`AdmissionRejection`], in the plan's workload order.
pub(crate) fn admit(
    session: &Session,
    plan: &ExperimentPlan,
    insertions: &[InsertionSpec],
) -> Result<(), AdmissionRejection> {
    if insertions.is_empty() && !plan.wants_asmdb() {
        return Ok(()); // nothing prefetches; nothing to refute
    }
    let custom = (!insertions.is_empty()).then(|| custom_plan(insertions));
    for spec in plan.workloads() {
        if let Some(custom) = &custom {
            refute(
                spec,
                "custom insertions",
                &session.evaluate_plan(spec, custom),
            )?;
        }
        if plan.wants_asmdb() {
            refute(spec, "session plan", &session.plan_coverage(spec))?;
        }
    }
    Ok(())
}

/// Rejects `what` on `spec` if its evaluation trips a fatal rule.
fn refute(
    spec: &WorkloadSpec,
    what: &'static str,
    eval: &PlanEvaluation,
) -> Result<(), AdmissionRejection> {
    let rules = eval.fatal_rules();
    if rules.is_empty() {
        return Ok(());
    }
    Err(AdmissionRejection {
        workload: spec.name.clone(),
        what,
        rules: rules.iter().map(|r| r.to_string()).collect(),
    })
}

/// Lifts wire [`InsertionSpec`]s into an AsmDB [`Plan`] the evaluator
/// understands. The claimed distance/reach are carried through verbatim —
/// the evaluator re-derives its own distances from the CFG anyway.
fn custom_plan(specs: &[InsertionSpec]) -> Plan {
    let insertions: Vec<Insertion> = specs
        .iter()
        .map(|s| Insertion {
            anchor: Addr::new(s.anchor),
            before: true,
            target_pc: Addr::new(s.target),
            distance: s.distance,
            reach: s.reach,
        })
        .collect();
    let targeted: HashSet<u64> = insertions
        .iter()
        .map(|i| i.target_pc.line().number())
        .collect();
    Plan {
        targeted_lines: targeted.len(),
        uncovered_lines: 0,
        insertions,
    }
}
