//! Request dispatch: paths, methods, and admission control.
//!
//! The admission pipeline for `POST /v1/jobs` is strict and fully typed:
//! the body must decode as a [`PlanSpec`] (400 otherwise), the spec must
//! resolve against the session's workload suite (400 with the
//! [`PlanError`](swip_bench::PlanError) message), the prefetch plan must
//! pass static coverage admission (400 with the fatal `D`-rule ids — see
//! [`admit`](crate::admit)), and only then does the job contend for a
//! queue slot — so a typo'd workload name or a provably dead insertion
//! can never occupy capacity or reach a worker. Backpressure (429 +
//! `Retry-After`) and drain (503) are the only ways a sound plan is
//! refused.

use std::sync::Arc;

use swip_bench::ExperimentPlan;
use swip_report::{Json, PlanSpec};

use crate::http::{Request, Response};
use crate::job::JobState;
use crate::metrics::metrics_json;
use crate::queue::SubmitError;
use crate::server::ServeContext;
use crate::worker::QueuedJob;

/// Routes one request to its handler.
pub(crate) fn route(ctx: &Arc<ServeContext>, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(ctx),
        ("GET", "/metrics") => Response::json(200, metrics_json(ctx).render_pretty()),
        ("POST", "/v1/jobs") => submit(ctx, req),
        ("POST", "/v1/shutdown") => {
            ctx.begin_drain();
            Response::json(202, r#"{"status":"draining"}"#)
        }
        (method, path) => {
            if let Some(rest) = path.strip_prefix("/v1/jobs/") {
                if method != "GET" {
                    return Response::error(405, "job resources are read-only (use GET)");
                }
                return job_resource(ctx, rest);
            }
            if matches!(path, "/healthz" | "/metrics") {
                return Response::error(405, "use GET here");
            }
            if matches!(path, "/v1/jobs" | "/v1/shutdown") {
                return Response::error(405, "use POST here");
            }
            Response::error(404, "no such resource")
        }
    }
}

fn healthz(ctx: &ServeContext) -> Response {
    let obj = Json::Obj(vec![
        ("status".to_string(), Json::Str("ok".to_string())),
        ("draining".to_string(), Json::Bool(ctx.is_draining())),
    ]);
    Response::json(200, obj.render())
}

/// `POST /v1/jobs`: decode → resolve → enqueue.
fn submit(ctx: &Arc<ServeContext>, req: &Request) -> Response {
    if ctx.is_draining() {
        return Response::error(503, "server is draining; not accepting new jobs");
    }
    let Some(body) = req.body_str() else {
        return Response::error(400, "body is not UTF-8");
    };
    let spec = match PlanSpec::from_json_str(body) {
        Ok(spec) => spec,
        Err(e) => return Response::error(400, &format!("invalid plan: {e}")),
    };
    let plan = match ExperimentPlan::from_spec(&spec, &ctx.session.workloads()) {
        Ok(plan) => plan,
        Err(e) => return Response::error(400, &format!("unresolvable plan: {e}")),
    };
    // Static coverage admission (family D): a plan whose prefetches are
    // provably dead is refused before it can occupy queue capacity.
    if let Err(r) = crate::admit::admit(&ctx.session, &plan, &spec.insertions) {
        let obj = Json::Obj(vec![
            (
                "error".to_string(),
                Json::Str(format!(
                    "plan rejected by static admission: {} trip fatal coverage rules on \
                     workload {}",
                    r.what, r.workload
                )),
            ),
            ("workload".to_string(), Json::Str(r.workload)),
            (
                "rules".to_string(),
                Json::Arr(r.rules.into_iter().map(Json::Str).collect()),
            ),
        ]);
        return Response::json(400, obj.render());
    }
    // Store the *resolved* spec so the job resource shows exactly what
    // will run, even when the submission left an axis empty.
    let id = ctx.registry.create(plan.to_spec());
    match ctx.queue.push(QueuedJob { id, plan }) {
        Ok(()) => {
            let obj = Json::Obj(vec![
                ("id".to_string(), Json::U64(id)),
                ("state".to_string(), Json::Str("queued".to_string())),
                ("url".to_string(), Json::Str(format!("/v1/jobs/{id}"))),
            ]);
            Response::json(202, obj.render())
        }
        Err(SubmitError::Full) => {
            ctx.registry.remove(id);
            ctx.count_rejection();
            Response::error(429, "job queue is full; retry later").with_header("Retry-After", "1")
        }
        Err(SubmitError::Closed) => {
            ctx.registry.remove(id);
            Response::error(503, "server is draining; not accepting new jobs")
        }
    }
}

/// `GET /v1/jobs/{id}` and `GET /v1/jobs/{id}/report`.
fn job_resource(ctx: &ServeContext, rest: &str) -> Response {
    let (id_text, want_report) = match rest.strip_suffix("/report") {
        Some(prefix) => (prefix, true),
        None => (rest, false),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::error(400, "job ids are decimal integers");
    };
    if want_report {
        match ctx.registry.with(id, |j| (j.state, j.report_json.clone())) {
            None => Response::error(404, "no such job"),
            Some((JobState::Done, Some(report))) => Response::json(200, report),
            Some((JobState::Failed, _)) => {
                Response::error(409, "job failed; see the job resource for the reason")
            }
            Some((state, _)) => Response::error(
                409,
                &format!("job is {}; report not available yet", state.label()),
            ),
        }
    } else {
        match ctx.registry.with(id, |j| j.to_json()) {
            Some(json) => Response::json(200, json.render_pretty()),
            None => Response::error(404, "no such job"),
        }
    }
}
