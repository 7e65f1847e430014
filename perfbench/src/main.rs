//! `swip-perfbench`: the repository benchmark.
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_server --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! separate traced pass that reports the per-layer metrics. The last line
//! of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. The lines before it carry the
//! run's metadata (`meta`), every metric with its spread (`metric`), the
//! notes (`note`) and one line per failed operation (`FAILED`).
//! `record-digests` rewrites the stored seed-0 digests. README.md
//! describes the workloads and which layer each metric measures.

#![forbid(unsafe_code)]

mod gate;
mod serve;
mod stats;
mod sweep;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};

use swip_report::{ConfigReport, Json};
use swip_types::geomean;

use crate::gate::{config_digest, stored_configs, Digests, Gate};
use crate::sweep::Sweep;
use crate::workload::{Kind, Workload, WORKLOADS};

const USAGE: &str = "usage: swip-perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]
       swip-perfbench record-digests
workloads: sweep_server, sweep_compute, serve_short_jobs";

/// The run length when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 10;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, DEFAULT_SECONDS, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::named(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve-child") => return serve::child_main(&args[1..]),
        Some("record-digests") => record_digests(),
        _ => match parse_args(&args) {
            Ok(args) => run(&args),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let outcome = match (args.trace, w.kind) {
        (true, _) => traced::run(w)?,
        (false, Kind::Sweep) => sweep::run(w, args.seed, args.seconds)?,
        (false, Kind::Serve { .. }) => serve::run(w, args.seed)?,
    };
    outcome.print(args);
    Ok(())
}

/// One reported metric: its value, and how it was summarised.
pub struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    detail: Json,
}

impl Metric {
    /// A single measured or counted value.
    pub fn value(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            detail: Json::Null,
        }
    }

    /// The median of `samples`, with its quartiles and the sample count.
    pub fn median_of(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Metric {
        let [q1, _, q3] = stats::quartiles(samples);
        Metric {
            name: name.into(),
            unit,
            value: stats::median(samples),
            detail: obj([
                ("q1", Json::F64(q1)),
                ("q3", Json::F64(q3)),
                ("n", Json::U64(samples.len() as u64)),
            ]),
        }
    }

    /// A throughput with the estimator that gave it and its sample
    /// counts.
    pub fn throughput(
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        estimator: &str,
        job_runs: usize,
        rounds: usize,
    ) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            detail: obj([
                ("estimator", Json::Str(estimator.into())),
                ("job_runs", Json::U64(job_runs as u64)),
                ("rounds", Json::U64(rounds as u64)),
            ]),
        }
    }

    /// `job_p50_ms` and `job_p90_ms` from per-job latencies in ms: the
    /// median with its quartiles, and the nearest-rank p90 with the count
    /// of samples beyond it. The detail also names the highest percentile
    /// the tail rule ([`stats::tail`]) allows at this count: p90 on the
    /// serve workload's job count, only the median on a sweep's few jobs,
    /// whose p90 therefore rests on fewer than ten samples.
    pub fn latency(samples_ms: &[f64]) -> [Metric; 2] {
        let p50 = Metric::median_of("job_p50_ms", "ms", samples_ms);
        let p90 = stats::percentile(samples_ms, 900);
        let rule =
            stats::tail(samples_ms).map_or(Json::Null, |t| Json::F64(t.per_mille as f64 / 10.0));
        let tail = Metric {
            name: "job_p90_ms".into(),
            unit: "ms",
            value: p90.map_or(f64::NAN, |t| t.value),
            detail: obj([
                ("percentile", Json::F64(90.0)),
                ("beyond", Json::U64(p90.map_or(0, |t| t.beyond) as u64)),
                ("n", Json::U64(samples_ms.len() as u64)),
                ("tail_rule_allows", rule),
            ]),
        };
        [p50, tail]
    }
}

fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// What one run measured, and how its operations fared at the gate.
pub struct Outcome {
    /// Attempted and failed operations.
    pub gate: Gate,
    /// The run's timed repetitions (sweep rounds or jobs; 1 for a traced
    /// pass).
    pub repeats: usize,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Lines printed with the result.
    pub notes: Vec<String>,
}

impl Outcome {
    fn print(&self, args: &Args) {
        let w = args.workload;
        let (attempted, failed) = (self.gate.attempted, self.gate.failed);
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let meta = obj([
            ("workload", w.definition()),
            ("workload_key", Json::Str(w.key())),
            (
                "mode",
                Json::Str(if args.trace { "traced" } else { "timed" }.into()),
            ),
            ("seed", Json::U64(args.seed)),
            ("seconds", Json::U64(args.seconds)),
            ("repeats", Json::U64(self.repeats as u64)),
            ("commit", Json::Str(commit())),
            ("nproc", Json::U64(nproc as u64)),
            (
                "rustc",
                Json::Str(first_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
            ),
            (
                "error_rate",
                Json::F64(failed as f64 / attempted.max(1) as f64),
            ),
            ("results_digest", Json::Str(self.gate.results_digest())),
        ]);
        println!("meta {}", meta.render());
        for m in &self.metrics {
            println!(
                "metric {} = {} {} {}",
                m.name,
                m.value,
                m.unit,
                m.detail.render()
            );
        }
        for note in &self.notes {
            println!("note {note}");
        }
        for failure in &self.gate.failures {
            println!("FAILED {failure}");
        }
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = obj([
                    ("value", Json::F64(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]);
                (m.name.clone(), value)
            })
            .collect();
        let result = obj([
            ("correct", Json::Bool(attempted > 0 && failed == 0)),
            ("attempted", Json::U64(attempted)),
            ("failed", Json::U64(failed)),
            ("metrics", Json::Obj(metrics)),
        ]);
        println!("{}", result.render());
    }
}

/// The checked-out commit, when the working directory is a git checkout.
fn commit() -> String {
    if Path::new(".git").exists() {
        if let Some(commit) = first_line("git", &["rev-parse", "HEAD"]) {
            return commit;
        }
    }
    "unknown (not a git checkout)".into()
}

/// The first line `program` prints, when it runs and succeeds.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status
        .success()
        .then(|| text.lines().next().unwrap_or_default().to_string())
}

/// The peak resident memory (VmHWM) of process `pid`, or of `self`, in
/// MiB.
pub fn peak_rss_mib(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {path}"))
}

/// The model-validity note printed with every result.
pub fn fig1_note(cells: &BTreeMap<String, Vec<ConfigReport>>) -> String {
    const SERIES: [(&str, &str, &str); 5] = [
        ("ftq2_asmdb", "AsmDB", "~1.20"),
        ("ftq2_asmdb_noov", "AsmDB no-overhead", "not stated"),
        ("ftq24_fdp", "FDP24", "~1.41"),
        ("ftq24_asmdb", "AsmDB+FDP24", "~FDP24"),
        ("ftq24_asmdb_noov", "AsmDB+FDP24 no-overhead", "~1.49"),
    ];
    let ipc = |configs: &[ConfigReport], label: &str| {
        configs
            .iter()
            .find(|c| c.config == label)
            .and_then(|c| c.value("effective_ipc"))
    };
    let series: Vec<String> = SERIES
        .iter()
        .map(|(label, name, paper)| {
            let speedups: Vec<f64> = cells
                .values()
                .filter_map(|c| Some(ipc(c, label)? / ipc(c, "ftq2_fdp")?))
                .collect();
            format!("{name} {:.3} (paper {paper})", geomean(&speedups))
        })
        .collect();
    format!(
        "model validity: the simulator is not validated against hardware; its only reference \
         is the paper's shape claims in EXPERIMENTS.md. For information, not gated: Fig-1 \
         geomean speedup over ftq2_fdp on this run's {} traces: {}",
        cells.len(),
        series.join(", ")
    )
}

/// `record-digests`: recomputes every workload's seed-0 digests into
/// `digests.tsv`. Run it only for a change meant to alter simulated
/// results, and rebuild afterwards: the file is compiled in.
fn record_digests() -> Result<(), String> {
    let mut digests = Digests::default();
    for w in &WORKLOADS {
        let session = w.session()?;
        for (trace, configs) in Sweep::run(&session, &w.specs(), &stored_configs())?.by_trace() {
            for c in &configs {
                digests.insert(w.name, &trace, &c.config, config_digest(c));
            }
        }
    }
    std::fs::write(gate::STORED_PATH, digests.render())
        .map_err(|e| format!("writing {}: {e}", gate::STORED_PATH))?;
    eprintln!("wrote {}", gate::STORED_PATH);
    Ok(())
}
