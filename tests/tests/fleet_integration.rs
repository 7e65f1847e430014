//! Integration tests for `swip-fleet` against real worker processes:
//! a sharded sweep must be byte-identical to a single-node offline run,
//! SIGKILLing a worker mid-sweep must not change the merged bytes, and
//! the merge itself must not care what order partials arrive in.

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use swip_bench::{build_plan_report, ExperimentPlan, SessionBuilder};
use swip_fleet::{plan_order, run_plan, FleetConfig};
use swip_report::{merge_plan_reports, Json, PlanSpec};
use swip_serve::client;

const INSTRUCTIONS: u64 = 20_000;
const THREADS: usize = 2;

struct Worker {
    child: Arc<Mutex<Child>>,
    addr: String,
    // Keep the pipe alive so the worker never sees a closed stdout.
    _stdout: BufReader<ChildStdout>,
}

impl Worker {
    /// Spawns a real worker process on an ephemeral port and scrapes the
    /// `listening on ADDR` line, exactly like `scripts/check.sh` does.
    fn spawn(stride: usize) -> Worker {
        let mut child = Command::new(env!("CARGO_BIN_EXE_fleet_worker"))
            .args([
                INSTRUCTIONS.to_string(),
                stride.to_string(),
                THREADS.to_string(),
            ])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn fleet_worker");
        let mut stdout = BufReader::new(child.stdout.take().expect("worker stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("worker addr line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected worker banner {line:?}"))
            .to_string();
        Worker {
            child: Arc::new(Mutex::new(child)),
            addr,
            _stdout: stdout,
        }
    }

    /// SIGKILL — no drain, no goodbye, exactly what a crashed machine
    /// looks like to the coordinator.
    fn kill(&self) {
        let mut child = self.child.lock().unwrap();
        let _ = child.kill();
        let _ = child.wait();
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The single-node reference: same knobs, same plan, one process.
fn offline_report(stride: usize, spec: &PlanSpec) -> String {
    let session = SessionBuilder::new()
        .instructions(INSTRUCTIONS)
        .stride(stride)
        .threads(THREADS)
        .build()
        .unwrap();
    let plan = ExperimentPlan::from_spec(spec, &session.workloads()).unwrap();
    let results = session.run(&plan).unwrap();
    build_plan_report(&session, &results).to_json()
}

fn resolve_plan(stride: usize, spec: &PlanSpec) -> ExperimentPlan {
    let session = SessionBuilder::new()
        .instructions(INSTRUCTIONS)
        .stride(stride)
        .threads(1)
        .build()
        .unwrap();
    ExperimentPlan::from_spec(spec, &session.workloads()).unwrap()
}

#[test]
fn two_worker_sweep_is_byte_identical_to_offline() {
    // stride 24 → 2 workloads × the paper six = 12 shards.
    let stride = 24;
    let spec = PlanSpec::default();
    let (w1, w2) = (Worker::spawn(stride), Worker::spawn(stride));

    let plan = resolve_plan(stride, &spec);
    assert_eq!(plan.job_count(), 12);
    let config = FleetConfig {
        workers: vec![w1.addr.clone(), w2.addr.clone()],
        ..FleetConfig::default()
    };
    let run = run_plan(&plan, &config).expect("fleet run");

    assert_eq!(run.report.to_json(), offline_report(stride, &spec));
    assert_eq!(run.stats.shards, 12);
    assert_eq!(run.stats.redispatches, 0);
    assert!(run.stats.workers.iter().all(|w| !w.dead));
    assert_eq!(
        run.stats
            .workers
            .iter()
            .map(|w| w.shards_done)
            .sum::<usize>(),
        12,
        "{:?}",
        run.stats
    );
}

#[test]
fn sigkill_mid_sweep_redispatches_and_matches_offline() {
    // stride 16 → 3 workloads × the paper six = 18 shards: enough work
    // that the kill below lands with most of the sweep outstanding.
    let stride = 16;
    let spec = PlanSpec::default();
    let (w1, w2) = (Worker::spawn(stride), Worker::spawn(stride));

    // Kill worker 2 as soon as it has finished its first shard — the
    // sweep is then provably mid-flight (at most a few of 18 done).
    let victim_child = Arc::clone(&w2.child);
    let victim_addr = w2.addr.clone();
    let killer = thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if let Ok((200, body)) = client::request(&victim_addr, "GET", "/metrics", None) {
                let done = Json::parse(&body)
                    .ok()
                    .and_then(|m| m.get("jobs_done").and_then(Json::as_u64))
                    .unwrap_or(0);
                if done >= 1 {
                    break;
                }
            }
            assert!(Instant::now() < deadline, "worker 2 never finished a shard");
            thread::sleep(Duration::from_millis(5));
        }
        let mut child = victim_child.lock().unwrap();
        let _ = child.kill();
        let _ = child.wait();
    });

    let plan = resolve_plan(stride, &spec);
    assert_eq!(plan.job_count(), 18);
    let config = FleetConfig {
        workers: vec![w1.addr.clone(), w2.addr.clone()],
        ..FleetConfig::default()
    };
    let run = run_plan(&plan, &config).expect("fleet run must survive the kill");
    killer.join().unwrap();

    let offline = offline_report(stride, &spec);
    assert_eq!(run.report.to_json(), offline);
    assert!(
        run.stats.workers.iter().any(|w| w.dead),
        "the killed worker was never declared dead: {:?}",
        run.stats
    );
    assert!(
        run.stats.redispatches >= 1,
        "no shard was re-dispatched: {:?}",
        run.stats
    );

    // A second sweep with the dead address still configured: the
    // registration probe drops it and the survivor carries the plan.
    let run = run_plan(&plan, &config).expect("fleet run with a dead address");
    assert_eq!(run.report.to_json(), offline);
    assert_eq!(run.stats.workers.len(), 1, "{:?}", run.stats);
    assert_eq!(run.stats.workers[0].addr, w1.addr);
}

#[test]
fn shard_timeout_past_the_end_of_instant_means_no_deadline() {
    let stride = 24;
    let (workload, config) = resolve_plan(stride, &PlanSpec::default()).cells()[0].clone();
    let spec = PlanSpec {
        workloads: vec![workload],
        configs: vec![config],
        insertions: Vec::new(),
        prefetchers: Vec::new(),
    };
    let worker = Worker::spawn(stride);
    let config = FleetConfig {
        workers: vec![worker.addr.clone()],
        shard_timeout: Duration::from_secs(u64::MAX),
        ..FleetConfig::default()
    };
    let run = run_plan(&resolve_plan(stride, &spec), &config).expect("fleet run");
    assert_eq!(run.report.to_json(), offline_report(stride, &spec));
    assert_eq!(run.stats.shards, 1);
}

#[test]
fn merge_is_independent_of_arrival_order() {
    // Build every single-cell partial the way a worker would (same
    // session knobs, single-cell plan, plan report), then merge them in
    // hostile orders: the bytes must always equal the full-plan report.
    let stride = 24;
    let session = SessionBuilder::new()
        .instructions(INSTRUCTIONS)
        .stride(stride)
        .threads(THREADS)
        .build()
        .unwrap();
    let full_plan = ExperimentPlan::from_spec(&PlanSpec::default(), &session.workloads()).unwrap();
    let results = session.run(&full_plan).unwrap();
    let reference = build_plan_report(&session, &results).to_json();

    let mut partials = Vec::new();
    for (workload, config) in full_plan.cells() {
        let spec = PlanSpec {
            workloads: vec![workload],
            configs: vec![config],
            insertions: Vec::new(),
            prefetchers: Vec::new(),
        };
        let plan = ExperimentPlan::from_spec(&spec, &session.workloads()).unwrap();
        let results = session.run(&plan).unwrap();
        partials.push(build_plan_report(&session, &results));
    }
    assert_eq!(partials.len(), 12);

    let order = plan_order(&full_plan);
    // Plan order itself, fully reversed, a mid-stream rotation, and an
    // even/odd interleave — every arrival order must merge identically.
    let mut shuffles: Vec<Vec<usize>> = vec![
        (0..partials.len()).collect(),
        (0..partials.len()).rev().collect(),
        (0..partials.len())
            .map(|i| (i + 5) % partials.len())
            .collect(),
    ];
    let mut interleaved: Vec<usize> = (0..partials.len()).step_by(2).collect();
    interleaved.extend((1..partials.len()).step_by(2));
    shuffles.push(interleaved);

    for shuffle in shuffles {
        let arrived: Vec<_> = shuffle.iter().map(|&i| partials[i].clone()).collect();
        let merged = merge_plan_reports(&order, &arrived).expect("merge");
        assert_eq!(
            merged.to_json(),
            reference,
            "merge diverged for arrival order {shuffle:?}"
        );
    }
}
