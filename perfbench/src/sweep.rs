//! The sweep workloads' timed mode.
//!
//! Set-up — generating the traces and running the AsmDB pipeline through
//! `Session::trace` and `Session::asmdb` — is timed on its own, several
//! times, each time on a fresh session. The timed region then runs a
//! serial (`threads(1)`) sweep of all eight configurations on the last,
//! warm session, in rounds: each round runs every (trace, configuration)
//! job once, as a one-job `Session::run`, in an order shuffled per round.
//! Rounds repeat until the run's `--seconds` are up; the first round
//! always completes, and the clock may cut the last one off. Throughput
//! is taken over the whole timed region, and job latency over every job
//! run in it.
//! The seed orders the jobs of each round; the traces are the paper
//! suite's under every seed, so every job is held to its stored digest.

use std::collections::BTreeMap;
use std::time::Instant;

use swip_bench::{ConfigId, ExperimentPlan, Session, WorkloadResults};
use swip_report::ConfigReport;
use swip_workloads::WorkloadSpec;

use crate::workload::{shuffle, Workload};
use crate::{fig1_note, peak_rss_mib, Metric, Outcome};

/// Cold set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One sweep's results, per configuration.
pub struct Sweep {
    /// Host seconds for the whole sweep.
    pub wall_s: f64,
    /// Each configuration's results, in the order asked for.
    pub results: Vec<(ConfigId, Vec<WorkloadResults>)>,
}

impl Sweep {
    /// Runs each of `configs` over `specs` on `session`.
    pub fn run(
        session: &Session,
        specs: &[WorkloadSpec],
        configs: &[ConfigId],
    ) -> Result<Sweep, String> {
        let start = Instant::now();
        let mut results = Vec::with_capacity(configs.len());
        for &id in configs {
            let plan = ExperimentPlan::new(specs.to_vec(), &[id]);
            results.push((id, session.run(&plan).map_err(|e| e.to_string())?));
        }
        Ok(Sweep {
            wall_s: start.elapsed().as_secs_f64(),
            results,
        })
    }

    /// Each (trace, configuration) job's host seconds.
    pub fn job_seconds(&self) -> impl Iterator<Item = f64> + '_ {
        self.results
            .iter()
            .flat_map(|(_, results)| results.iter().map(WorkloadResults::job_seconds))
    }

    /// Each trace's flattened reports, in configuration order.
    pub fn by_trace(&self) -> BTreeMap<String, Vec<ConfigReport>> {
        let mut cells: BTreeMap<String, Vec<ConfigReport>> = BTreeMap::new();
        for (id, results) in &self.results {
            for r in results {
                cells
                    .entry(r.name().to_string())
                    .or_default()
                    .push(ConfigReport::from_sim(id.label(), r.report(*id)));
            }
        }
        cells
    }
}

/// The timed run of a sweep workload.
pub fn run(w: &'static Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let specs = w.specs();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut warm = None;
    for _ in 0..SETUPS {
        // Free the previous session first, so every set-up starts cold.
        drop(warm.take());
        let start = Instant::now();
        let session = w.session()?;
        for spec in &specs {
            session.trace(spec);
            session.asmdb(spec);
        }
        setup_s.push(start.elapsed().as_secs_f64());
        warm = Some(session);
    }
    let session = warm.expect("SETUPS is positive");

    // Every (trace, configuration) job, in report order.
    let jobs: Vec<(usize, ConfigId)> = (0..specs.len())
        .flat_map(|t| ConfigId::ALL.map(|id| (t, id)))
        .collect();
    let mut job_s = vec![Vec::new(); jobs.len()];
    let mut gate = w.gate();
    let mut cells = BTreeMap::new();
    let mut rounds = 0;
    let start = Instant::now();
    loop {
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        shuffle(&mut order, seed ^ (rounds as u64) << 32);
        let mut reports = vec![None; jobs.len()];
        let mut complete = true;
        for i in order {
            if rounds > 0 && start.elapsed().as_secs_f64() >= seconds as f64 {
                complete = false;
                break;
            }
            let (t, id) = jobs[i];
            let job = Sweep::run(&session, &specs[t..=t], &[id])?;
            job_s[i].push(job.wall_s);
            let report = job.by_trace().into_values().flatten().next();
            reports[i] = Some(report.ok_or("a job returned no report")?);
        }
        if reports.iter().any(Option::is_some) {
            rounds += 1;
        }
        let mut by_trace: BTreeMap<String, Vec<ConfigReport>> = BTreeMap::new();
        for ((t, _), report) in jobs.iter().zip(reports) {
            if let Some(report) = report {
                by_trace
                    .entry(specs[*t].name.clone())
                    .or_default()
                    .push(report);
            }
        }
        // A complete round is checked trace by trace, so that a trace's
        // configurations are held against each other; the round the
        // clock cut off, job by job.
        if complete {
            for (trace, configs) in &by_trace {
                gate.count_configs(trace, configs);
            }
            cells = by_trace;
        } else {
            for (trace, configs) in &by_trace {
                for c in configs {
                    gate.count_configs(trace, std::slice::from_ref(c));
                }
            }
            break;
        }
    }
    let rss = peak_rss_mib("self")?;

    // The host's speed drifts over seconds, so throughput is taken over
    // the whole timed region: one round's work over the sum of the jobs'
    // mean times. The mean rather than a count of finished jobs keeps the
    // mix of jobs that of one full round when the clock cuts a round off.
    let mean_s: Vec<f64> = job_s
        .iter()
        .map(|s| s.iter().sum::<f64>() / s.len() as f64)
        .collect();
    let round_s: f64 = mean_s.iter().sum();
    let instructions: u64 = cells
        .values()
        .flatten()
        .filter_map(|c| c.counter("instructions"))
        .sum();
    let latency_ms: Vec<f64> = job_s.iter().flatten().map(|s| s * 1e3).collect();
    let runs = latency_ms.len();
    let [p50, tail] = Metric::latency(&latency_ms);
    const ESTIMATOR: &str = "one round's work / sum of per-job mean times";
    Ok(Outcome {
        gate,
        repeats: rounds,
        metrics: vec![
            Metric::throughput(
                "sim_ips",
                "instr/s",
                instructions as f64 / round_s,
                ESTIMATOR,
                runs,
                rounds,
            ),
            Metric::median_of("setup_s", "s", &setup_s),
            Metric::median_of("peak_rss_mb", "MiB", &[rss]),
            p50,
            tail,
            Metric::throughput(
                "jobs_per_s",
                "jobs/s",
                jobs.len() as f64 / round_s,
                ESTIMATOR,
                runs,
                rounds,
            ),
        ],
        notes: vec![fig1_note(&cells)],
    })
}
