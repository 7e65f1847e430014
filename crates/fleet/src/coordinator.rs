//! The coordinator: per-worker agent threads over a shared shard queue.
//!
//! Scheduling is work-stealing in the simplest form: one agent thread
//! per live worker pulls the next shard off a shared queue, runs it to
//! completion on its worker (submit → poll → fetch report), and stores
//! the partial report by shard index. The queue is the single source of
//! truth for "work not yet owned"; shards move queue → in-flight →
//! done, and every failure path puts the shard back on the queue (or
//! declares the run failed), so no shard is ever silently lost.
//!
//! Failure taxonomy, in decreasing severity:
//!
//! * **dead worker** — a connection error whose follow-up `/healthz`
//!   probe also fails. The shard is re-queued without charging its
//!   retry budget (the shard did nothing wrong) and the agent exits.
//! * **shard failure** — a live worker answered, but unhelpfully (job
//!   `failed`, non-202 submit, unparsable report) or not in time
//!   (deadline). Charges one attempt; exponential backoff; the run
//!   fails once [`FleetConfig::max_attempts`] is spent.
//! * **queue drained** — agents exit when all shards are done, or when
//!   a fatal error is posted.

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use swip_bench::ExperimentPlan;
use swip_report::{merge_plan_reports, Json, PlanSpec, RunReport};
use swip_serve::client::{self, Connection};

use crate::{plan_order, FleetConfig, FleetError, FleetRun, FleetStats, WorkerStats};

/// Base backoff between retry attempts; doubles per attempt.
const BACKOFF: Duration = Duration::from_millis(200);
/// Delay between job-state polls while a shard runs, and between queue
/// checks while an idle agent waits on shards in flight elsewhere.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// One unit of work: a single-cell plan plus its retry ledger.
struct Task {
    /// Index into the plan's cell list (and the results vector).
    index: usize,
    workload: String,
    config: String,
    attempts: u32,
}

/// How one shard attempt ended, short of success.
enum ShardError {
    /// The worker failed its liveness probe; re-queue free of charge.
    Dead(String),
    /// The worker is alive but the attempt failed; charge the budget.
    Failed(String),
    /// The attempt outran [`FleetConfig::shard_timeout`].
    Timeout,
}

impl ShardError {
    fn describe(&self) -> String {
        match self {
            ShardError::Dead(why) => format!("worker dead: {why}"),
            ShardError::Failed(why) => why.clone(),
            ShardError::Timeout => "shard deadline exceeded".to_string(),
        }
    }
}

/// State shared by every agent thread.
struct Shared {
    queue: Mutex<VecDeque<Task>>,
    results: Mutex<Vec<Option<RunReport>>>,
    done: AtomicUsize,
    in_flight: AtomicUsize,
    fatal: Mutex<Option<FleetError>>,
    redispatches: AtomicU64,
    retries: AtomicU64,
    total: usize,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `plan` across the configured workers and merges the partial
/// reports into one plan-order [`RunReport`], byte-identical to a
/// single-node `build_plan_report` run of the same plan at the same
/// session knobs.
///
/// Workers are registered by a `/healthz` probe first; unreachable ones
/// are dropped up front. The sweep then completes as long as at least
/// one registered worker stays alive.
///
/// # Errors
///
/// [`FleetError::NoWorkers`] when registration finds nobody,
/// [`FleetError::ShardFailed`] when a shard exhausts its retry budget,
/// [`FleetError::AllWorkersDead`] when the whole fleet dies mid-sweep,
/// and [`FleetError::Merge`] if the collected partials are inconsistent
/// (a determinism-contract violation).
pub fn run_plan(plan: &ExperimentPlan, config: &FleetConfig) -> Result<FleetRun, FleetError> {
    let cells = plan.cells();
    if cells.is_empty() {
        return Err(FleetError::EmptyPlan);
    }

    // Registration: one liveness probe per configured worker.
    let live: Vec<String> = config
        .workers
        .iter()
        .filter(|addr| matches!(client::request(addr, "GET", "/healthz", None), Ok((200, _))))
        .cloned()
        .collect();
    if live.is_empty() {
        return Err(FleetError::NoWorkers {
            configured: config.workers.len(),
        });
    }

    let total = cells.len();
    let shared = Arc::new(Shared {
        queue: Mutex::new(
            cells
                .into_iter()
                .enumerate()
                .map(|(index, (workload, config))| Task {
                    index,
                    workload,
                    config,
                    attempts: 0,
                })
                .collect(),
        ),
        results: Mutex::new(vec![None; total]),
        done: AtomicUsize::new(0),
        in_flight: AtomicUsize::new(0),
        fatal: Mutex::new(None),
        redispatches: AtomicU64::new(0),
        retries: AtomicU64::new(0),
        total,
    });

    let workers: Vec<WorkerStats> = thread::scope(|scope| {
        let handles: Vec<_> = live
            .iter()
            .map(|addr| {
                let shared = Arc::clone(&shared);
                let cfg = config.clone();
                let addr = addr.clone();
                scope.spawn(move || agent(addr, &shared, &cfg))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("agent threads do not panic"))
            .collect()
    });

    if let Some(err) = lock(&shared.fatal).take() {
        return Err(err);
    }
    let partials: Vec<RunReport> = {
        let mut results = lock(&shared.results);
        let collected: Vec<RunReport> = results.iter_mut().filter_map(Option::take).collect();
        if collected.len() < total {
            return Err(FleetError::AllWorkersDead {
                completed: collected.len(),
                total,
            });
        }
        collected
    };
    let report = merge_plan_reports(&plan_order(plan), &partials)?;
    Ok(FleetRun {
        report,
        stats: FleetStats {
            shards: total,
            redispatches: shared.redispatches.load(Ordering::Relaxed),
            retries: shared.retries.load(Ordering::Relaxed),
            workers,
        },
    })
}

/// One worker's agent loop: pull a shard, run it, repeat — until the
/// plan is done, a fatal error is posted, or this worker dies.
fn agent(addr: String, shared: &Shared, cfg: &FleetConfig) -> WorkerStats {
    let mut stats = WorkerStats {
        addr: addr.clone(),
        shards_done: 0,
        dead: false,
    };
    let mut conn: Option<Connection> = None;
    loop {
        if lock(&shared.fatal).is_some() || shared.done.load(Ordering::SeqCst) >= shared.total {
            return stats;
        }
        // Pop and mark in-flight under one lock, so "queue empty and
        // nothing in flight" is never observed while a task is owned.
        let task = {
            let mut queue = lock(&shared.queue);
            let task = queue.pop_front();
            if task.is_some() {
                shared.in_flight.fetch_add(1, Ordering::SeqCst);
            }
            task
        };
        let Some(mut task) = task else {
            if shared.in_flight.load(Ordering::SeqCst) == 0 {
                // Nothing queued, nothing owned, plan incomplete: a
                // fatal post is in progress on another agent. Either
                // way there is no work left for this thread.
                return stats;
            }
            thread::sleep(POLL_INTERVAL);
            continue;
        };

        match run_shard(&addr, &task, cfg, &mut conn) {
            Ok(report) => {
                lock(&shared.results)[task.index] = Some(report);
                shared.done.fetch_add(1, Ordering::SeqCst);
                shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                stats.shards_done += 1;
            }
            Err(ShardError::Dead(_)) => {
                // The shard did nothing wrong: re-queue it uncharged for
                // a surviving worker and retire this agent.
                shared.redispatches.fetch_add(1, Ordering::Relaxed);
                lock(&shared.queue).push_back(task);
                shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                stats.dead = true;
                return stats;
            }
            Err(err) => {
                task.attempts += 1;
                shared.retries.fetch_add(1, Ordering::Relaxed);
                if task.attempts >= cfg.max_attempts {
                    *lock(&shared.fatal) = Some(FleetError::ShardFailed {
                        workload: task.workload,
                        config: task.config,
                        attempts: task.attempts,
                        last_error: err.describe(),
                    });
                    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                    return stats;
                }
                let backoff = BACKOFF * 2u32.saturating_pow(task.attempts - 1);
                lock(&shared.queue).push_back(task);
                shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                thread::sleep(backoff);
            }
        }
    }
}

/// Runs one shard to completion on `addr`: submit the single-cell plan,
/// poll the job to a terminal state, fetch the report.
fn run_shard(
    addr: &str,
    task: &Task,
    cfg: &FleetConfig,
    conn: &mut Option<Connection>,
) -> Result<RunReport, ShardError> {
    // A deadline too far off to represent is no deadline.
    let deadline = Instant::now().checked_add(cfg.shard_timeout);
    let expired = || deadline.is_some_and(|d| Instant::now() >= d);
    let spec = PlanSpec {
        workloads: vec![task.workload.clone()],
        configs: vec![task.config.clone()],
        insertions: Vec::new(),
        prefetchers: Vec::new(),
    };
    let body = spec.to_json_value().render();

    // Submit, riding out backpressure until the deadline.
    let id = loop {
        let (status, text) = http(addr, conn, "POST", "/v1/jobs", Some(&body))?;
        match status {
            202 => {
                let id = Json::parse(&text)
                    .ok()
                    .and_then(|j| j.get("id").and_then(Json::as_u64));
                match id {
                    Some(id) => break id,
                    None => {
                        return Err(ShardError::Failed(format!("202 without a job id: {text}")))
                    }
                }
            }
            429 => {
                if expired() {
                    return Err(ShardError::Timeout);
                }
                thread::sleep(Duration::from_millis(100));
            }
            // Draining refuses new work permanently; treat as death so
            // the shard moves on immediately.
            503 => return Err(ShardError::Dead("worker is draining".to_string())),
            _ => {
                return Err(ShardError::Failed(format!(
                    "submit answered {status}: {text}"
                )))
            }
        }
    };

    // Poll to a terminal state.
    let job_path = format!("/v1/jobs/{id}");
    loop {
        if expired() {
            return Err(ShardError::Timeout);
        }
        let (status, text) = http(addr, conn, "GET", &job_path, None)?;
        if status != 200 {
            return Err(ShardError::Failed(format!(
                "job poll answered {status}: {text}"
            )));
        }
        let state = Json::parse(&text)
            .ok()
            .and_then(|j| j.get("state").and_then(Json::as_str).map(str::to_string))
            .unwrap_or_default();
        match state.as_str() {
            "done" => break,
            "failed" => {
                return Err(ShardError::Failed(format!(
                    "worker reported failure: {text}"
                )))
            }
            _ => thread::sleep(POLL_INTERVAL),
        }
    }

    let (status, text) = http(addr, conn, "GET", &format!("{job_path}/report"), None)?;
    if status != 200 {
        return Err(ShardError::Failed(format!(
            "report fetch answered {status}: {text}"
        )));
    }
    RunReport::from_json_str(&text)
        .map_err(|e| ShardError::Failed(format!("unparsable partial report: {e}")))
}

/// One request on the agent's kept-alive connection, with dead-worker
/// discrimination: a connection error is only a *shard* error if the
/// worker still answers `/healthz` on a fresh socket (the kept-alive
/// connection may simply have idled out); otherwise the worker is dead.
fn http(
    addr: &str,
    conn: &mut Option<Connection>,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), ShardError> {
    fn attempt(
        addr: &str,
        conn: &mut Option<Connection>,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        if conn.is_none() {
            *conn = Some(Connection::connect(addr)?);
        }
        conn.as_mut()
            .expect("just connected")
            .request(method, path, body)
    }

    match attempt(addr, conn, method, path, body) {
        Ok(result) => Ok(result),
        Err(first) => {
            *conn = None;
            match client::request(addr, "GET", "/healthz", None) {
                Ok((200, _)) => match attempt(addr, conn, method, path, body) {
                    Ok(result) => Ok(result),
                    Err(second) => {
                        *conn = None;
                        Err(ShardError::Failed(format!(
                            "request failed twice on a live worker: {first}; then {second}"
                        )))
                    }
                },
                _ => Err(ShardError::Dead(format!(
                    "connection failed ({first}) and the liveness probe got no answer"
                ))),
            }
        }
    }
}
