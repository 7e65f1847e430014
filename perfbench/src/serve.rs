//! The serve workload: a `swip serve` process driven closed-loop over
//! kept-alive HTTP connections.
//!
//! The server is this binary run again as `serve-child`, which runs the
//! `swip serve` command itself through the CLI library, with a trace
//! cache directory, one worker and one job thread. Each request is one workload under the eight configurations;
//! its client polls the job resource until the job is done and then
//! fetches the report. The server's standard input stays open for as long
//! as the benchmark holds it, and the server exits when it closes, so no
//! server outlives a killed benchmark.

use std::collections::BTreeMap;
use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use swip_bench::ConfigId;
use swip_report::{Json, RunReport};
use swip_serve::client::{self, Connection};

use crate::gate::Gate;
use crate::workload::Workload;
use crate::{fig1_note, peak_rss_mib, Metric, Outcome};

/// Closed-loop clients, each on its own kept-alive connection.
pub const CLIENTS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 1;
/// Engine threads per job.
pub const JOB_THREADS: usize = 1;
/// Queue capacity: room for every client's job, so none is refused.
pub const QUEUE_DEPTH: usize = 4;
/// Pause between polls of a job resource.
const POLL: Duration = Duration::from_millis(3);
/// A job not done this long after submission has timed out.
const JOB_DEADLINE: Duration = Duration::from_secs(120);
/// How long the server may take to start answering, or to exit.
const PROCESS_DEADLINE: Duration = Duration::from_secs(60);

/// `serve-child INSTRUCTIONS CACHE_DIR`: runs `swip serve` through the
/// CLI's own `parse` and `execute`, serving the 48-trace suite at
/// `INSTRUCTIONS` per trace with its trace cache in `CACHE_DIR`. The
/// command prints `listening on ADDR` once bound.
pub fn child_main(args: &[String]) -> ExitCode {
    let [instructions, cache_dir] = args else {
        eprintln!("usage: swip-perfbench serve-child INSTRUCTIONS CACHE_DIR");
        return ExitCode::from(2);
    };
    // Detached on purpose: all it does is end the process once the
    // benchmark's end of the pipe closes without a shutdown request.
    thread::spawn(|| {
        let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
        std::process::exit(3);
    });
    let (workers, queue_depth, job_threads) = (
        WORKERS.to_string(),
        QUEUE_DEPTH.to_string(),
        JOB_THREADS.to_string(),
    );
    let argv = [
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        &workers,
        "--queue-depth",
        &queue_depth,
        "--job-threads",
        &job_threads,
        "--instructions",
        instructions,
        "--cache-dir",
        cache_dir,
    ];
    let served = swip_cli::parse(&argv)
        .map_err(|e| e.to_string())
        .and_then(|cmd| swip_cli::execute(cmd).map_err(|e| e.to_string()));
    match served {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("serve-child: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A scratch directory under `.perfbench/` in the working directory,
/// removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates this process's scratch directory.
    pub fn create() -> Result<WorkDir, String> {
        let dir = Path::new(".perfbench").join(format!("work-{}", std::process::id()));
        fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A running server. Dropping it kills the process and waits for it.
pub struct ServerProcess {
    child: Child,
    addr: String,
    stdout: BufReader<ChildStdout>,
    // Held for the child's lifetime: closing it ends the child.
    _stdin: ChildStdin,
}

impl ServerProcess {
    /// Starts a server over the suite at `instructions` per trace, with
    /// its trace cache and log in `work`, and waits until it is healthy.
    pub fn start(instructions: u64, work: &WorkDir) -> Result<ServerProcess, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
        let log_path = work.join("serve.log");
        let log =
            fs::File::create(&log_path).map_err(|e| format!("creating the server log: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve-child")
            .arg(instructions.to_string())
            .arg(work.join("cache"))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("starting the server: {e}"))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = ServerProcess {
            child,
            addr: String::new(),
            stdout,
            _stdin: stdin,
        };
        let mut line = String::new();
        let _ = server.stdout.read_line(&mut line);
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| {
                let log = fs::read_to_string(&log_path).unwrap_or_default();
                format!("the server did not start: {}", log.trim())
            })?
            .to_string();
        let start = Instant::now();
        loop {
            match client::request(&server.addr, "GET", "/healthz", None) {
                Ok((200, _)) => return Ok(server),
                _ if start.elapsed() > PROCESS_DEADLINE => {
                    return Err("the server never answered /healthz".into())
                }
                _ => thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    /// The server's `HOST:PORT`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The server's peak resident memory, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        peak_rss_mib(&self.child.id().to_string())
    }

    /// Drains the server through `POST /v1/shutdown` and waits for it to
    /// exit 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        let (status, body) = client::request(&self.addr, "POST", "/v1/shutdown", None)
            .map_err(|e| format!("POST /v1/shutdown: {e}"))?;
        if status != 202 {
            return Err(format!("POST /v1/shutdown answered {status}: {body}"));
        }
        let start = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("the server exited with {status}")),
                Ok(None) if start.elapsed() < PROCESS_DEADLINE => {
                    thread::sleep(Duration::from_millis(10))
                }
                Ok(None) => return Err("the server did not exit after shutdown".into()),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        // Both fail harmlessly when the server has already exited.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A job the server completed, as its client saw it.
pub struct Served {
    /// The job resource's `queue_seconds`.
    pub queue_s: f64,
    /// The job resource's `run_seconds`.
    pub run_s: f64,
    /// Status polls until the job was done.
    pub polls: u64,
    /// The report's JSON.
    pub report: String,
}

/// One request of the closed loop.
pub struct JobSample {
    /// The workload it ran.
    pub workload: String,
    /// Client-observed seconds, from sending the POST to holding the
    /// report.
    pub latency_s: f64,
    /// The served job, or why the request failed.
    pub outcome: Result<Served, String>,
}

/// Sends `order`'s requests closed-loop from [`CLIENTS`] clients: a
/// client sends its next request only once its previous one completed.
pub fn closed_loop(addr: &str, order: &[String]) -> Vec<JobSample> {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(order.len()));
    thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut conn = Connection::connect(addr).ok();
                while let Some(workload) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let start = Instant::now();
                    let outcome = match conn.as_mut() {
                        Some(c) => serve_one(c, workload),
                        None => Err(format!("could not connect to {addr}")),
                    };
                    let latency_s = start.elapsed().as_secs_f64();
                    if outcome.is_err() {
                        // A failed exchange can leave the socket mid-response.
                        conn = Connection::connect(addr).ok();
                    }
                    samples
                        .lock()
                        .expect("a client panicked holding the samples")
                        .push(JobSample {
                            workload: workload.clone(),
                            latency_s,
                            outcome,
                        });
                }
            });
        }
    });
    samples
        .into_inner()
        .expect("a client panicked holding the samples")
}

/// One request: submit `workload` under the eight configurations, poll
/// until it is done, fetch the report.
fn serve_one(conn: &mut Connection, workload: &str) -> Result<Served, String> {
    let plan = Json::Obj(vec![
        (
            "workloads".to_string(),
            Json::Arr(vec![Json::Str(workload.to_string())]),
        ),
        (
            "configs".to_string(),
            Json::Arr(
                ConfigId::ALL
                    .iter()
                    .map(|c| Json::Str(c.label().to_string()))
                    .collect(),
            ),
        ),
    ])
    .render();
    let (status, body) = conn
        .request("POST", "/v1/jobs", Some(plan.as_str()))
        .map_err(|e| format!("POST /v1/jobs: {e}"))?;
    if status != 202 {
        return Err(format!("POST /v1/jobs answered {status}: {}", body.trim()));
    }
    let id = Json::parse(&body)
        .ok()
        .and_then(|j| j.get("id").and_then(Json::as_u64))
        .ok_or_else(|| format!("no job id in {body}"))?;
    let submitted = Instant::now();
    let mut polls = 0;
    let job = loop {
        let (status, body) = conn
            .request("GET", &format!("/v1/jobs/{id}"), None)
            .map_err(|e| format!("GET /v1/jobs/{id}: {e}"))?;
        polls += 1;
        if status != 200 {
            return Err(format!(
                "GET /v1/jobs/{id} answered {status}: {}",
                body.trim()
            ));
        }
        let job = Json::parse(&body).map_err(|e| format!("job {id} is not JSON: {e}"))?;
        match job.get("state").and_then(Json::as_str) {
            Some("done") => break job,
            Some("failed") => {
                let reason = job
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("no reason");
                return Err(format!("job {id} failed: {reason}"));
            }
            _ if submitted.elapsed() > JOB_DEADLINE => {
                return Err(format!("job {id} not done after {JOB_DEADLINE:?}"))
            }
            _ => thread::sleep(POLL),
        }
    };
    let seconds = |key: &str| {
        job.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("job {id} has no {key}"))
    };
    let (queue_s, run_s) = (seconds("queue_seconds")?, seconds("run_seconds")?);
    let (status, report) = conn
        .request("GET", &format!("/v1/jobs/{id}/report"), None)
        .map_err(|e| format!("GET /v1/jobs/{id}/report: {e}"))?;
    if status != 200 {
        return Err(format!("GET /v1/jobs/{id}/report answered {status}"));
    }
    Ok(Served {
        queue_s,
        run_s,
        polls,
        report,
    })
}

/// Counts one request as an operation; returns its report when it parsed.
pub fn check_job(gate: &mut Gate, sample: &JobSample) -> Option<RunReport> {
    let (why, report) = match &sample.outcome {
        Ok(served) => gate.check_served(&sample.workload, &served.report),
        Err(e) => (vec![e.clone()], None),
    };
    gate.record(&format!("job {}", sample.workload), why);
    report
}

/// One request per trace of `traces` on a fresh server at `w`'s scale:
/// the traced pass's serve figures.
pub fn pass(w: &Workload, traces: &[String]) -> Result<Vec<JobSample>, String> {
    let work = WorkDir::create()?;
    let server = ServerProcess::start(w.instructions, &work)?;
    let samples = closed_loop(server.addr(), traces);
    server.shutdown()?;
    Ok(samples)
}

/// The timed run of the serve workload.
pub fn run(w: &'static Workload, seed: u64) -> Result<Outcome, String> {
    let work = WorkDir::create()?;
    let suite: Vec<String> = w.specs().into_iter().map(|s| s.name).collect();
    let start = Instant::now();
    let server = ServerProcess::start(w.instructions, &work)?;
    let warm = closed_loop(server.addr(), &suite);
    let setup_s = start.elapsed().as_secs_f64();

    let order = w.job_order(seed);
    let start = Instant::now();
    let timed = closed_loop(server.addr(), &order);
    let wall_s = start.elapsed().as_secs_f64();
    let rss = server.peak_rss_mib()?;
    server.shutdown()?;

    let mut gate = w.gate();
    let mut cells = BTreeMap::new();
    for sample in &warm {
        if let Some(report) = check_job(&mut gate, sample) {
            for wr in report.workloads {
                cells.insert(wr.name, wr.configs);
            }
        }
    }
    let mut retired = 0;
    for sample in &timed {
        if let Some(report) = check_job(&mut gate, sample) {
            retired += report
                .workloads
                .iter()
                .flat_map(|wr| &wr.configs)
                .filter_map(|c| c.counter("instructions"))
                .sum::<u64>();
        }
    }
    let latency_ms: Vec<f64> = timed.iter().map(|s| s.latency_s * 1e3).collect();
    let [p50, tail] = Metric::latency(&latency_ms);
    Ok(Outcome {
        gate,
        repeats: order.len(),
        metrics: vec![
            Metric::median_of("sim_ips", "instr/s", &[retired as f64 / wall_s]),
            Metric::median_of("setup_s", "s", &[setup_s]),
            Metric::median_of("peak_rss_mb", "MiB", &[rss]),
            p50,
            tail,
            Metric::median_of("jobs_per_s", "jobs/s", &[timed.len() as f64 / wall_s]),
        ],
        notes: vec![fig1_note(&cells)],
    })
}
