//! Command parsing and execution for the `swip` command-line tool.
//!
//! Subcommands:
//!
//! * `swip suite [--instructions N]` — list the 48 CVP-1-like workloads;
//! * `swip gen <workload> --out FILE [--instructions N]` — generate a
//!   workload trace and write it in the `SWIP` binary format;
//! * `swip inspect FILE` — print a trace's mix/footprint summary;
//! * `swip run FILE [--ftq N] [--conservative] [--timeline FILE
//!   [--sample-stride N]]` — simulate a trace and print the report,
//!   optionally exporting the cycle-sampled scenario timeline as Chrome
//!   trace-event JSON (open it in `chrome://tracing` or Perfetto);
//! * `swip asmdb FILE --out FILE [--aggressive]` — run the AsmDB pipeline
//!   and write the rewritten trace;
//! * `swip analyze FILE [--json] [--coverage]` — statically verify a trace
//!   (and the CFG, plan, and rewrite derived from it) without simulating;
//!   `--coverage` additionally classifies every planned insertion as
//!   useful / dead / redundant / late / clobbering (rules `D001`–`D004`).
//!   Exits like `diff(1)`: 0 when no errors were found, 1 on
//!   error-severity diagnostics, 2 when the file cannot be read or
//!   decoded;
//! * `swip analyze --predict-vs REPORT.json [--threshold X]` — compare the
//!   coverage predictions embedded in a bench `report.json` against its
//!   measured prefetch counters; same exit convention (1 = divergence
//!   above the threshold, 2 = unreadable/incomparable report);
//! * `swip bench [--figure NAME] [--prefetcher NAME]... [--instructions N]
//!   [--stride N] [--threads K] [--asmdb TUNING] [--cache-dir DIR]` — run
//!   one registered experiment through the parallel experiment engine: a
//!   paper figure (or `all` of them), the prefetcher zoo, or an ablation
//!   or §VI extension (the names are those of
//!   `swip_bench::figures::FIGURES`); the `all` sweep also writes a
//!   structured `report.json` next to the TSVs; `--prefetcher`
//!   (repeatable, one of `fdp`/`asmdb`/`mana`/`shadow_btb`) runs the
//!   prefetcher-zoo comparison sweep over the named mechanisms instead;
//! * `swip report FILE` — summarize a `report.json`; `swip report --diff
//!   A B` — print the counter-level differences between two run reports
//!   and exit like `diff(1)`: 0 when they match, 1 when they differ, 2
//!   when a file cannot be read or parsed;
//! * `swip fleet run` — shard an experiment plan across `swip serve`
//!   workers (`--worker HOST:PORT`, repeatable, with `--shard-timeout
//!   SECS` and `--retries N`) and merge the partial reports into one
//!   `RunReport` byte-identical to a single-node run; `--offline` runs
//!   the same plan locally through the session engine instead (the
//!   reference the fleet output is compared against), sized by
//!   `--job-threads K`; each mode rejects the other's flags;
//! * `swip serve [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!   [--max-conns N] [--keep-alive-timeout SECS] [--instructions N]
//!   [--stride N] [--job-threads K] [--cache-dir DIR]` — run the
//!   experiment engine as an HTTP service: keep-alive connections
//!   multiplexed on a `poll(2)` readiness loop, a bounded connection
//!   table (`503` shedding past `--max-conns`), and a bounded job queue
//!   (see `swip-serve`).
//!
//! The parser is hand-rolled (the workspace's dependency budget is
//! deliberately small) and returns structured [`Command`]s so it can be
//! tested without touching the filesystem. [`execute`] returns the
//! process exit code so subcommands with meaningful codes (`report
//! --diff`) stay testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;
use std::fs::File;

use swip_asmdb::{Asmdb, AsmdbConfig};
use swip_core::{SimConfig, Simulator};
use swip_trace::Trace;
use swip_workloads::{cvp1_suite, generate};

/// A parsed CLI invocation.
#[derive(Clone, PartialEq, Debug)]
pub enum Command {
    /// List the workload suite.
    Suite {
        /// Instructions per workload (affects the printed footprints).
        instructions: u64,
    },
    /// Generate a workload trace to a file.
    Gen {
        /// Workload name (e.g. `secret_srv12`) or index (0–47).
        workload: String,
        /// Output path.
        out: String,
        /// Dynamic instruction budget.
        instructions: u64,
    },
    /// Summarize a trace file.
    Inspect {
        /// Trace path.
        file: String,
    },
    /// Simulate a trace file.
    Run {
        /// Trace path.
        file: String,
        /// FTQ depth (defaults to the industry-standard 24).
        ftq: usize,
        /// Write the scenario timeline as Chrome trace-event JSON here.
        timeline: Option<String>,
        /// Timeline sampling stride in cycles.
        sample_stride: u64,
    },
    /// Run the AsmDB pipeline on a trace file.
    Asmdb {
        /// Input trace path.
        file: String,
        /// Output (rewritten) trace path.
        out: String,
        /// Use the aggressive tuning.
        aggressive: bool,
    },
    /// Statically verify a trace file without simulating it, or compare a
    /// run report's embedded coverage predictions against its counters.
    Analyze {
        /// Trace path (`None` in `--predict-vs` mode).
        file: Option<String>,
        /// Emit the report as one JSON object instead of text.
        json: bool,
        /// Run the coverage family (D001–D004) and attach the predicted
        /// coverage summary.
        coverage: bool,
        /// Run-report path for prediction-vs-measurement mode.
        predict_vs: Option<String>,
        /// Maximum tolerated predict-vs divergence.
        threshold: swip_analyze::DivergenceThreshold,
    },
    /// Run benchmark figures through the parallel experiment engine.
    Bench {
        /// Experiment to run: a name registered in
        /// `swip_bench::figures::FIGURES`.
        figure: String,
        /// Prefetchers for the zoo comparison sweep (`--prefetcher` flags,
        /// repeatable). Non-empty selects the `prefetchers` figure over
        /// exactly these mechanisms.
        prefetchers: Vec<swip_types::PrefetcherId>,
        /// Dynamic instruction budget per workload.
        instructions: u64,
        /// Workload suite stride (1 = all 48, 8 = every 8th, …).
        stride: usize,
        /// Worker threads (defaults to the machine's parallelism).
        threads: Option<usize>,
        /// AsmDB tuning (`default`, `aggressive`, `wide`).
        asmdb: swip_bench::AsmdbTuning,
        /// Directory for the on-disk trace cache.
        cache_dir: Option<String>,
    },
    /// Summarize or diff structured run reports.
    Report {
        /// Run-report JSON paths: one (summary) or two (`--diff`).
        files: Vec<String>,
    },
    /// Shard an experiment plan across `swip serve` workers, or run it
    /// locally with `--offline`.
    Fleet {
        /// Worker addresses (`--worker`, repeatable).
        workers: Vec<String>,
        /// Run the plan locally instead of dispatching to workers.
        offline: bool,
        /// Dynamic instruction budget per workload.
        instructions: u64,
        /// Workload suite stride (1 = all 48, 8 = every 8th, …).
        stride: usize,
        /// Workload names selecting a plan subset (empty = whole suite).
        workloads: Vec<String>,
        /// Configuration labels (empty = the paper's six).
        configs: Vec<String>,
        /// Prefetcher labels unioned into the configuration axis.
        prefetchers: Vec<String>,
        /// Session threads for the offline run (`--offline` only).
        job_threads: Option<usize>,
        /// Write the merged report JSON here instead of summarizing.
        out: Option<String>,
        /// Wall-clock budget per shard attempt, in seconds (`--worker`
        /// mode only).
        shard_timeout: u64,
        /// Attempts per shard before the run fails (`--worker` mode
        /// only).
        retries: u32,
    },
    /// Serve the experiment engine over HTTP.
    Serve {
        /// Listen address (`HOST:PORT`; port 0 picks a free port).
        addr: String,
        /// Worker threads executing jobs.
        workers: usize,
        /// Bounded job-queue capacity (excess submissions get 429).
        queue_depth: usize,
        /// Bounded connection-table capacity (excess accepts get 503 +
        /// `Connection: close`).
        max_conns: usize,
        /// Idle keep-alive connection timeout, in seconds.
        keep_alive_timeout: u64,
        /// Dynamic instruction budget per workload.
        instructions: u64,
        /// Workload suite stride (1 = all 48, 8 = every 8th, …).
        stride: usize,
        /// Session threads per job (defaults to machine parallelism).
        job_threads: Option<usize>,
        /// Directory for the on-disk trace cache.
        cache_dir: Option<String>,
    },
    /// Print usage.
    Help,
}

/// A CLI usage error.
#[derive(Clone, PartialEq, Debug)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for UsageError {}

/// Usage text for `swip help`.
pub const USAGE: &str = "\
swip — the swip-fe front-end characterization toolkit

USAGE:
  swip suite [--instructions N]
  swip gen <workload> --out FILE [--instructions N]
  swip inspect FILE
  swip run FILE [--ftq N] [--conservative] [--timeline FILE [--sample-stride N]]
  swip asmdb FILE --out FILE [--aggressive]
  swip analyze FILE [--json] [--coverage]
                                   (exits 0 clean / 1 errors / 2 unreadable)
  swip analyze --predict-vs REPORT.json [--threshold X]
  swip bench [--figure NAME] [--prefetcher fdp|asmdb|mana|shadow_btb]...
             [--instructions N] [--stride N] [--threads K]
             [--asmdb default|aggressive|wide] [--cache-dir DIR]
             NAME: all table1 fig1 fig7 fig8 fig9 fig10 fig11 scenarios
                   prefetchers ablation_ftq ablation_frontend ablation_fanout
                   extension_hw_prefetch extension_preload feedback
  swip report FILE
  swip report --diff FILE FILE     (exits 0 match / 1 differ / 2 unreadable)
  swip fleet run ((--worker HOST:PORT)... [--shard-timeout SECS] [--retries N]
                 | --offline [--job-threads K])
             [--workload NAME]... [--config LABEL]... [--prefetcher NAME]...
             [--instructions N] [--stride N] [--out FILE]
  swip serve [--addr HOST:PORT] [--workers N] [--queue-depth N]
             [--max-conns N] [--keep-alive-timeout SECS]
             [--instructions N] [--stride N] [--job-threads K] [--cache-dir DIR]
  swip help
";

fn take_value<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    flag: &str,
) -> Result<&'a str, UsageError> {
    args.next()
        .ok_or_else(|| UsageError(format!("{flag} requires a value")))
}

/// Parses an argument vector (without the program name) into a [`Command`].
///
/// # Errors
///
/// Returns [`UsageError`] on unknown subcommands, unknown flags, missing
/// values, or unparsable or out-of-range numbers.
pub fn parse(args: &[&str]) -> Result<Command, UsageError> {
    let mut it = args.iter().copied();
    let Some(sub) = it.next() else {
        return Ok(Command::Help);
    };
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "suite" => {
            let mut instructions = 300_000u64;
            while let Some(a) = it.next() {
                match a {
                    "--instructions" => {
                        instructions = parse_num(take_value(&mut it, a)?)?;
                    }
                    other => return Err(UsageError(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Suite { instructions })
        }
        "gen" => {
            let workload = it
                .next()
                .ok_or_else(|| UsageError("gen requires a workload name or index".into()))?
                .to_string();
            let mut out = None;
            let mut instructions = 300_000u64;
            while let Some(a) = it.next() {
                match a {
                    "--out" => out = Some(take_value(&mut it, a)?.to_string()),
                    "--instructions" => instructions = parse_num(take_value(&mut it, a)?)?,
                    other => return Err(UsageError(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Gen {
                workload,
                out: out.ok_or_else(|| UsageError("gen requires --out FILE".into()))?,
                instructions,
            })
        }
        "inspect" => {
            let file = it
                .next()
                .ok_or_else(|| UsageError("inspect requires a trace file".into()))?
                .to_string();
            Ok(Command::Inspect { file })
        }
        "run" => {
            let file = it
                .next()
                .ok_or_else(|| UsageError("run requires a trace file".into()))?
                .to_string();
            let mut ftq = 24usize;
            let mut timeline = None;
            let mut sample_stride = 64u64;
            while let Some(a) = it.next() {
                match a {
                    "--ftq" => ftq = parse_num(take_value(&mut it, a)?)?,
                    "--conservative" => ftq = 2,
                    "--timeline" => timeline = Some(take_value(&mut it, a)?.to_string()),
                    "--sample-stride" => sample_stride = parse_num(take_value(&mut it, a)?)?,
                    other => return Err(UsageError(format!("unknown flag {other}"))),
                }
            }
            if ftq == 0 {
                return Err(UsageError("--ftq must be positive".into()));
            }
            if sample_stride == 0 {
                return Err(UsageError("--sample-stride must be positive".into()));
            }
            Ok(Command::Run {
                file,
                ftq,
                timeline,
                sample_stride,
            })
        }
        "asmdb" => {
            let file = it
                .next()
                .ok_or_else(|| UsageError("asmdb requires a trace file".into()))?
                .to_string();
            let mut out = None;
            let mut aggressive = false;
            while let Some(a) = it.next() {
                match a {
                    "--out" => out = Some(take_value(&mut it, a)?.to_string()),
                    "--aggressive" => aggressive = true,
                    other => return Err(UsageError(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Asmdb {
                file,
                out: out.ok_or_else(|| UsageError("asmdb requires --out FILE".into()))?,
                aggressive,
            })
        }
        "analyze" => {
            let mut file = None;
            let mut json = false;
            let mut coverage = false;
            let mut predict_vs = None;
            let mut threshold = None;
            while let Some(a) = it.next() {
                match a {
                    "--json" => json = true,
                    "--coverage" => coverage = true,
                    "--predict-vs" => {
                        predict_vs = Some(take_value(&mut it, a)?.to_string());
                    }
                    "--threshold" => {
                        let v = take_value(&mut it, a)?;
                        threshold =
                            Some(swip_analyze::DivergenceThreshold::parse(v).map_err(UsageError)?);
                    }
                    flag if flag.starts_with("--") => {
                        return Err(UsageError(format!("unknown flag {flag}")))
                    }
                    f => {
                        if file.replace(f.to_string()).is_some() {
                            return Err(UsageError("analyze takes exactly one trace file".into()));
                        }
                    }
                }
            }
            match (&file, &predict_vs) {
                (None, None) => {
                    return Err(UsageError(
                        "analyze requires a trace file or --predict-vs REPORT".into(),
                    ))
                }
                (Some(_), Some(_)) => {
                    return Err(UsageError(
                        "analyze takes either a trace file or --predict-vs, not both".into(),
                    ))
                }
                _ => {}
            }
            if threshold.is_some() && predict_vs.is_none() {
                return Err(UsageError("--threshold requires --predict-vs".into()));
            }
            if coverage && predict_vs.is_some() {
                return Err(UsageError(
                    "--coverage applies to trace analysis, not --predict-vs".into(),
                ));
            }
            Ok(Command::Analyze {
                file,
                json,
                coverage,
                predict_vs,
                threshold: threshold.unwrap_or_default(),
            })
        }
        "bench" => {
            let mut figure = "all".to_string();
            let mut prefetchers = Vec::new();
            let mut instructions = 300_000u64;
            let mut stride = 1usize;
            let mut threads = None;
            let mut asmdb = swip_bench::AsmdbTuning::Default;
            let mut cache_dir = None;
            while let Some(a) = it.next() {
                match a {
                    "--figure" => figure = take_value(&mut it, a)?.to_string(),
                    "--prefetcher" => {
                        let v = take_value(&mut it, a)?;
                        prefetchers.push(
                            swip_types::PrefetcherId::from_label(v)
                                .map_err(|e| UsageError(e.to_string()))?,
                        );
                    }
                    "--instructions" => instructions = parse_num(take_value(&mut it, a)?)?,
                    "--stride" => stride = parse_num(take_value(&mut it, a)?)?,
                    "--threads" => threads = Some(parse_num(take_value(&mut it, a)?)?),
                    "--asmdb" => {
                        let v = take_value(&mut it, a)?;
                        asmdb = swip_bench::AsmdbTuning::parse(v)
                            .ok_or_else(|| UsageError(format!("unknown asmdb tuning {v}")))?;
                    }
                    "--cache-dir" => cache_dir = Some(take_value(&mut it, a)?.to_string()),
                    other => return Err(UsageError(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Bench {
                figure,
                prefetchers,
                instructions,
                stride,
                threads,
                asmdb,
                cache_dir,
            })
        }
        "report" => {
            let mut diff = false;
            let mut files = Vec::new();
            for a in it {
                match a {
                    "--diff" => diff = true,
                    flag if flag.starts_with("--") => {
                        return Err(UsageError(format!("unknown flag {flag}")))
                    }
                    file => files.push(file.to_string()),
                }
            }
            match (diff, files.len()) {
                (false, 1) | (true, 2) => Ok(Command::Report { files }),
                (false, _) => Err(UsageError("report requires exactly one FILE".into())),
                (true, _) => Err(UsageError(
                    "report --diff requires exactly two FILEs".into(),
                )),
            }
        }
        "fleet" => {
            match it.next() {
                Some("run") => {}
                Some(other) => {
                    return Err(UsageError(format!(
                        "unknown fleet subcommand {other} (expected run)"
                    )))
                }
                None => return Err(UsageError("fleet requires a subcommand (run)".into())),
            }
            let mut workers = Vec::new();
            let mut offline = false;
            let mut instructions = 300_000u64;
            let mut stride = 1usize;
            let mut workloads = Vec::new();
            let mut configs = Vec::new();
            let mut prefetchers = Vec::new();
            let mut job_threads = None;
            let mut out = None;
            let mut shard_timeout: Option<u64> = None;
            let mut retries: Option<u32> = None;
            while let Some(a) = it.next() {
                match a {
                    "--worker" => workers.push(take_value(&mut it, a)?.to_string()),
                    "--offline" => offline = true,
                    "--instructions" => instructions = parse_num(take_value(&mut it, a)?)?,
                    "--stride" => stride = parse_num(take_value(&mut it, a)?)?,
                    "--workload" => workloads.push(take_value(&mut it, a)?.to_string()),
                    "--config" => configs.push(take_value(&mut it, a)?.to_string()),
                    "--prefetcher" => prefetchers.push(take_value(&mut it, a)?.to_string()),
                    "--job-threads" => {
                        job_threads = Some(parse_num(take_value(&mut it, a)?)?);
                    }
                    "--out" => out = Some(take_value(&mut it, a)?.to_string()),
                    "--shard-timeout" => {
                        shard_timeout = Some(parse_num(take_value(&mut it, a)?)?);
                    }
                    "--retries" => retries = Some(parse_num(take_value(&mut it, a)?)?),
                    other => return Err(UsageError(format!("unknown flag {other}"))),
                }
            }
            if offline && !workers.is_empty() {
                return Err(UsageError(
                    "--offline and --worker are mutually exclusive".into(),
                ));
            }
            if !offline && workers.is_empty() {
                return Err(UsageError(
                    "fleet run requires at least one --worker (or --offline)".into(),
                ));
            }
            // Each mode reads only its own flags: refuse the other mode's
            // rather than ignore them.
            let stray = if offline {
                shard_timeout
                    .map(|_| "--shard-timeout")
                    .or(retries.map(|_| "--retries"))
            } else {
                job_threads.map(|_| "--job-threads")
            };
            if let Some(flag) = stray {
                let mode = if offline { "--offline" } else { "--worker" };
                return Err(UsageError(format!("{flag} does not apply to {mode} runs")));
            }
            let shard_timeout = shard_timeout.unwrap_or(120);
            let retries = retries.unwrap_or(3);
            if shard_timeout == 0 {
                return Err(UsageError("--shard-timeout must be positive".into()));
            }
            if retries == 0 {
                return Err(UsageError("--retries must be positive".into()));
            }
            Ok(Command::Fleet {
                workers,
                offline,
                instructions,
                stride,
                workloads,
                configs,
                prefetchers,
                job_threads,
                out,
                shard_timeout,
                retries,
            })
        }
        "serve" => {
            let mut addr = "127.0.0.1:8080".to_string();
            let mut workers = 2usize;
            let mut queue_depth = 16usize;
            let mut max_conns = 256usize;
            let mut keep_alive_timeout = 5u64;
            let mut instructions = 300_000u64;
            let mut stride = 1usize;
            let mut job_threads = None;
            let mut cache_dir = None;
            while let Some(a) = it.next() {
                match a {
                    "--addr" => addr = take_value(&mut it, a)?.to_string(),
                    "--workers" => workers = parse_num(take_value(&mut it, a)?)?,
                    "--queue-depth" => {
                        queue_depth = parse_num(take_value(&mut it, a)?)?;
                    }
                    "--max-conns" => {
                        max_conns = parse_num(take_value(&mut it, a)?)?;
                    }
                    "--keep-alive-timeout" => {
                        keep_alive_timeout = parse_num(take_value(&mut it, a)?)?;
                    }
                    "--instructions" => instructions = parse_num(take_value(&mut it, a)?)?,
                    "--stride" => stride = parse_num(take_value(&mut it, a)?)?,
                    "--job-threads" => {
                        job_threads = Some(parse_num(take_value(&mut it, a)?)?);
                    }
                    "--cache-dir" => cache_dir = Some(take_value(&mut it, a)?.to_string()),
                    other => return Err(UsageError(format!("unknown flag {other}"))),
                }
            }
            if workers == 0 {
                return Err(UsageError("--workers must be positive".into()));
            }
            if queue_depth == 0 {
                return Err(UsageError("--queue-depth must be positive".into()));
            }
            if max_conns == 0 {
                return Err(UsageError("--max-conns must be positive".into()));
            }
            if keep_alive_timeout == 0 {
                return Err(UsageError("--keep-alive-timeout must be positive".into()));
            }
            Ok(Command::Serve {
                addr,
                workers,
                queue_depth,
                max_conns,
                keep_alive_timeout,
                instructions,
                stride,
                job_threads,
                cache_dir,
            })
        }
        other => Err(UsageError(format!("unknown subcommand {other}"))),
    }
}

/// Parses a flag's number (`_` separators allowed) into the type of the
/// field it sets; a value that type cannot hold is a usage error.
fn parse_num<T: TryFrom<u64>>(s: &str) -> Result<T, UsageError> {
    let n: u64 = s
        .replace('_', "")
        .parse()
        .map_err(|_| UsageError(format!("not a number: {s}")))?;
    T::try_from(n).map_err(|_| UsageError(format!("out of range: {s}")))
}

/// Executes a parsed command, writing human-readable output to stdout,
/// and returns the process exit code (0 except where a subcommand
/// defines nonzero codes, like `report --diff`'s `diff(1)` convention).
///
/// # Errors
///
/// Returns I/O or decode errors from trace files, and [`UsageError`] for
/// unknown workload names.
pub fn execute(cmd: Command) -> Result<u8, Box<dyn Error>> {
    match cmd {
        Command::Help => print!("{USAGE}"),
        Command::Suite { instructions } => {
            let suite = cvp1_suite(instructions);
            println!(
                "{:<20} {:>10} {:>10} {:>8}",
                "workload", "functions", "footprint", "family"
            );
            for s in suite {
                println!(
                    "{:<20} {:>10} {:>7} KiB {:>8?}",
                    s.name,
                    s.functions,
                    s.approx_footprint_kib(),
                    s.family
                );
            }
        }
        Command::Gen {
            workload,
            out,
            instructions,
        } => {
            let suite = cvp1_suite(instructions);
            let spec = match workload.parse::<usize>() {
                Ok(i) if i < suite.len() => suite[i].clone(),
                _ => suite
                    .into_iter()
                    .find(|s| s.name == workload)
                    .ok_or_else(|| UsageError(format!("unknown workload {workload}")))?,
            };
            let trace = generate(&spec);
            trace.write_to(File::create(&out)?)?;
            println!("wrote {} ({})", out, trace.summary());
        }
        Command::Inspect { file } => {
            let trace = Trace::read_from(File::open(&file)?)?;
            println!("{}: {}", trace.name(), trace.summary());
        }
        Command::Run {
            file,
            ftq,
            timeline,
            sample_stride,
        } => {
            let trace = Trace::read_from(File::open(&file)?)?;
            let mut config = SimConfig::sunny_cove_like().with_ftq_entries(ftq);
            if timeline.is_some() {
                config.timeline = Some(swip_core::TimelineConfig {
                    stride: sample_stride,
                    capacity: 1 << 20,
                });
            }
            // parse() already rejects --sample-stride 0, but embedders
            // reach execute() directly — keep the typed check on both
            // layers.
            config.validate()?;
            let report = Simulator::new(config).run(&trace);
            println!("{report}");
            if let Some(out) = timeline {
                let json = swip_report::to_chrome_trace(&report.timeline, sample_stride);
                std::fs::write(&out, json)?;
                println!(
                    "wrote {out}: {} timeline samples ({} dropped by the ring buffer)",
                    report.timeline.len(),
                    report.timeline_dropped
                );
            }
        }
        Command::Asmdb {
            file,
            out,
            aggressive,
        } => {
            let trace = Trace::read_from(File::open(&file)?)?;
            let config = if aggressive {
                AsmdbConfig::aggressive()
            } else {
                AsmdbConfig::default()
            };
            let result = Asmdb::new(config).run(&trace, &SimConfig::conservative());
            result.rewritten.write_to(File::create(&out)?)?;
            println!(
                "wrote {out}: {} insertions, static bloat {:.2}%, dynamic bloat {:.2}%",
                result.plan.len(),
                result.report.static_bloat * 100.0,
                result.report.dynamic_bloat * 100.0
            );
        }
        Command::Analyze {
            file,
            json,
            coverage,
            predict_vs,
            threshold,
        } => {
            // diff(1)-style exit codes, matching `swip report --diff`:
            // 0 clean, 1 diagnostics/divergence found, 2 unreadable input.
            if let Some(path) = predict_vs {
                let text = match std::fs::read_to_string(&path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("error: could not read {path}: {e}");
                        return Ok(2);
                    }
                };
                let report = match swip_report::RunReport::from_json_str(&text) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("error: {path}: {e}");
                        return Ok(2);
                    }
                };
                let diff = match swip_analyze::PredictionDiff::against(&report, threshold) {
                    Ok(d) => d,
                    Err(e) => {
                        eprintln!("error: {path}: {e}");
                        return Ok(2);
                    }
                };
                println!("{diff}");
                if !diff.is_clean() {
                    return Ok(1);
                }
            } else {
                let file = file.expect("parse() guarantees a file without --predict-vs");
                let handle = match File::open(&file) {
                    Ok(f) => f,
                    Err(e) => {
                        eprintln!("error: could not read {file}: {e}");
                        return Ok(2);
                    }
                };
                let report = swip_analyze::analyze_read(handle, &file, coverage);
                if json {
                    println!("{}", report.to_json());
                } else {
                    println!("{report}");
                }
                if report.families == ["decode"] && report.has_errors() {
                    return Ok(2); // the bytes never decoded into a trace
                }
                if report.has_errors() {
                    return Ok(1);
                }
            }
        }
        Command::Bench {
            figure,
            prefetchers,
            instructions,
            stride,
            threads,
            asmdb,
            cache_dir,
        } => {
            let mut builder = swip_bench::SessionBuilder::new()
                .instructions(instructions)
                .stride(stride)
                .tuning(asmdb);
            if let Some(t) = threads {
                builder = builder.threads(t);
            }
            if let Some(dir) = cache_dir {
                builder = builder.cache_dir(dir);
            }
            let session = builder.build()?;
            if !prefetchers.is_empty() {
                swip_bench::figures::run_prefetcher_sweep(&session, &prefetchers)?;
            } else {
                swip_bench::figures::run_figure(&session, &figure)?;
            }
        }
        Command::Report { files } => {
            let load = |path: &str| -> Result<swip_report::RunReport, Box<dyn Error>> {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| UsageError(format!("could not read {path}: {e}")))?;
                Ok(swip_report::RunReport::from_json_str(&text)
                    .map_err(|e| UsageError(format!("{path}: {e}")))?)
            };
            match files.as_slice() {
                [file] => print!("{}", load(file)?.summary()),
                [a, b] => {
                    // diff(1) exit convention: unreadable/unparsable
                    // input is 2, a real difference is 1.
                    let (ra, rb) = match (load(a), load(b)) {
                        (Ok(ra), Ok(rb)) => (ra, rb),
                        (Err(e), _) | (_, Err(e)) => {
                            eprintln!("error: {e}");
                            return Ok(2);
                        }
                    };
                    let diff = swip_report::ReportDiff::between(&ra, &rb);
                    print!("{}", diff.render());
                    if !diff.is_clean() {
                        return Ok(1);
                    }
                }
                _ => unreachable!("parse() enforces one or two files"),
            }
        }
        Command::Fleet {
            workers,
            offline,
            instructions,
            stride,
            workloads,
            configs,
            prefetchers,
            job_threads,
            out,
            shard_timeout,
            retries,
        } => {
            let spec = swip_report::PlanSpec {
                workloads,
                configs,
                insertions: Vec::new(),
                prefetchers,
            };
            let mut builder = swip_bench::SessionBuilder::new()
                .instructions(instructions)
                .stride(stride);
            if let Some(t) = job_threads {
                builder = builder.threads(t);
            }
            let session = builder.build()?;
            let plan = swip_bench::ExperimentPlan::from_spec(&spec, &session.workloads())?;
            let report = if offline {
                let results = session.run(&plan)?;
                swip_bench::build_plan_report(&session, &results)
            } else {
                let config = swip_fleet::FleetConfig {
                    workers,
                    shard_timeout: std::time::Duration::from_secs(shard_timeout),
                    max_attempts: retries,
                };
                let run = swip_fleet::run_plan(&plan, &config)?;
                for w in &run.stats.workers {
                    println!(
                        "worker {}: {} shards{}",
                        w.addr,
                        w.shards_done,
                        if w.dead { " (died mid-sweep)" } else { "" }
                    );
                }
                println!(
                    "fleet: {} shards, {} re-dispatched after worker death, \
                     {} retried",
                    run.stats.shards, run.stats.redispatches, run.stats.retries
                );
                run.report
            };
            match out {
                Some(path) => {
                    std::fs::write(&path, report.to_json())?;
                    println!("wrote {path}");
                }
                None => print!("{}", report.summary()),
            }
        }
        Command::Serve {
            addr,
            workers,
            queue_depth,
            max_conns,
            keep_alive_timeout,
            instructions,
            stride,
            job_threads,
            cache_dir,
        } => {
            let mut builder = swip_bench::SessionBuilder::new()
                .instructions(instructions)
                .stride(stride);
            if let Some(t) = job_threads {
                builder = builder.threads(t);
            }
            if let Some(dir) = cache_dir {
                builder = builder.cache_dir(dir);
            }
            let session = builder.build()?;
            let config = swip_serve::ServeConfig {
                addr,
                workers,
                queue_depth,
                max_conns,
                keep_alive_timeout: std::time::Duration::from_secs(keep_alive_timeout),
                ..swip_serve::ServeConfig::default()
            };
            let server = swip_serve::Server::bind(&config, session)?;
            // Scripts scrape this line to learn the picked port.
            println!("listening on {}", server.local_addr());
            server.run()?;
        }
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_subcommand() {
        assert_eq!(parse(&[]), Ok(Command::Help));
        assert_eq!(parse(&["help"]), Ok(Command::Help));
        assert_eq!(
            parse(&["suite", "--instructions", "50_000"]),
            Ok(Command::Suite {
                instructions: 50_000
            })
        );
        assert_eq!(
            parse(&["gen", "secret_srv12", "--out", "x.swip"]),
            Ok(Command::Gen {
                workload: "secret_srv12".into(),
                out: "x.swip".into(),
                instructions: 300_000
            })
        );
        assert_eq!(
            parse(&["inspect", "x.swip"]),
            Ok(Command::Inspect {
                file: "x.swip".into()
            })
        );
        assert_eq!(
            parse(&["run", "x.swip", "--ftq", "8"]),
            Ok(Command::Run {
                file: "x.swip".into(),
                ftq: 8,
                timeline: None,
                sample_stride: 64
            })
        );
        assert_eq!(
            parse(&["run", "x.swip", "--conservative"]),
            Ok(Command::Run {
                file: "x.swip".into(),
                ftq: 2,
                timeline: None,
                sample_stride: 64
            })
        );
        assert_eq!(
            parse(&[
                "run",
                "x.swip",
                "--timeline",
                "trace.json",
                "--sample-stride",
                "16"
            ]),
            Ok(Command::Run {
                file: "x.swip".into(),
                ftq: 24,
                timeline: Some("trace.json".into()),
                sample_stride: 16
            })
        );
        assert_eq!(
            parse(&["report", "a.json"]),
            Ok(Command::Report {
                files: vec!["a.json".into()]
            })
        );
        assert_eq!(
            parse(&["report", "--diff", "a.json", "b.json"]),
            Ok(Command::Report {
                files: vec!["a.json".into(), "b.json".into()]
            })
        );
        assert_eq!(
            parse(&["serve"]),
            Ok(Command::Serve {
                addr: "127.0.0.1:8080".into(),
                workers: 2,
                queue_depth: 16,
                max_conns: 256,
                keep_alive_timeout: 5,
                instructions: 300_000,
                stride: 1,
                job_threads: None,
                cache_dir: None
            })
        );
        assert_eq!(
            parse(&[
                "serve",
                "--addr",
                "0.0.0.0:9999",
                "--workers",
                "4",
                "--queue-depth",
                "8",
                "--max-conns",
                "64",
                "--keep-alive-timeout",
                "2",
                "--instructions",
                "20_000",
                "--stride",
                "24",
                "--job-threads",
                "2",
                "--cache-dir",
                "/tmp/swip-cache"
            ]),
            Ok(Command::Serve {
                addr: "0.0.0.0:9999".into(),
                workers: 4,
                queue_depth: 8,
                max_conns: 64,
                keep_alive_timeout: 2,
                instructions: 20_000,
                stride: 24,
                job_threads: Some(2),
                cache_dir: Some("/tmp/swip-cache".into())
            })
        );
        assert_eq!(
            parse(&["asmdb", "x.swip", "--out", "y.swip", "--aggressive"]),
            Ok(Command::Asmdb {
                file: "x.swip".into(),
                out: "y.swip".into(),
                aggressive: true
            })
        );
        assert_eq!(
            parse(&["analyze", "x.swip"]),
            Ok(Command::Analyze {
                file: Some("x.swip".into()),
                json: false,
                coverage: false,
                predict_vs: None,
                threshold: swip_analyze::DivergenceThreshold::default(),
            })
        );
        assert_eq!(
            parse(&["analyze", "x.swip", "--json", "--coverage"]),
            Ok(Command::Analyze {
                file: Some("x.swip".into()),
                json: true,
                coverage: true,
                predict_vs: None,
                threshold: swip_analyze::DivergenceThreshold::default(),
            })
        );
        assert_eq!(
            parse(&["analyze", "--predict-vs", "r.json", "--threshold", "0.5"]),
            Ok(Command::Analyze {
                file: None,
                json: false,
                coverage: false,
                predict_vs: Some("r.json".into()),
                threshold: swip_analyze::DivergenceThreshold(0.5),
            })
        );
        assert_eq!(
            parse(&["bench"]),
            Ok(Command::Bench {
                figure: "all".into(),
                prefetchers: vec![],
                instructions: 300_000,
                stride: 1,
                threads: None,
                asmdb: swip_bench::AsmdbTuning::Default,
                cache_dir: None
            })
        );
        assert_eq!(
            parse(&[
                "bench",
                "--figure",
                "fig1",
                "--instructions",
                "20_000",
                "--stride",
                "16",
                "--threads",
                "4",
                "--asmdb",
                "wide",
                "--cache-dir",
                "/tmp/swip-cache"
            ]),
            Ok(Command::Bench {
                figure: "fig1".into(),
                prefetchers: vec![],
                instructions: 20_000,
                stride: 16,
                threads: Some(4),
                asmdb: swip_bench::AsmdbTuning::Wide,
                cache_dir: Some("/tmp/swip-cache".into())
            })
        );
        // `--prefetcher` is repeatable, accepts dashes, and is validated
        // at parse time with the typed label error.
        assert_eq!(
            parse(&[
                "bench",
                "--prefetcher",
                "mana",
                "--prefetcher",
                "shadow-btb"
            ]),
            Ok(Command::Bench {
                figure: "all".into(),
                prefetchers: vec![
                    swip_types::PrefetcherId::Mana,
                    swip_types::PrefetcherId::ShadowBtb
                ],
                instructions: 300_000,
                stride: 1,
                threads: None,
                asmdb: swip_bench::AsmdbTuning::Default,
                cache_dir: None
            })
        );
        let err = parse(&["bench", "--prefetcher", "markov"]).unwrap_err();
        assert!(err.0.contains("markov"), "{err}");
        assert!(err.0.contains("shadow_btb"), "{err}");
        assert_eq!(
            parse(&[
                "fleet",
                "run",
                "--worker",
                "127.0.0.1:1",
                "--worker",
                "127.0.0.1:2",
                "--shard-timeout",
                "30",
                "--retries",
                "5"
            ]),
            Ok(Command::Fleet {
                workers: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
                offline: false,
                instructions: 300_000,
                stride: 1,
                workloads: vec![],
                configs: vec![],
                prefetchers: vec![],
                job_threads: None,
                out: None,
                shard_timeout: 30,
                retries: 5
            })
        );
        assert_eq!(
            parse(&[
                "fleet",
                "run",
                "--offline",
                "--instructions",
                "20_000",
                "--stride",
                "16",
                "--workload",
                "secret_srv12",
                "--config",
                "ftq2_fdp",
                "--prefetcher",
                "mana",
                "--job-threads",
                "2",
                "--out",
                "merged.json"
            ]),
            Ok(Command::Fleet {
                workers: vec![],
                offline: true,
                instructions: 20_000,
                stride: 16,
                workloads: vec!["secret_srv12".into()],
                configs: vec!["ftq2_fdp".into()],
                prefetchers: vec!["mana".into()],
                job_threads: Some(2),
                out: Some("merged.json".into()),
                shard_timeout: 120,
                retries: 3
            })
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["analyze"]).is_err());
        assert!(parse(&["analyze", "x", "--bogus"]).is_err());
        assert!(parse(&["analyze", "x", "y"]).is_err());
        assert!(parse(&["analyze", "x", "--predict-vs", "r.json"]).is_err());
        assert!(parse(&["analyze", "x", "--threshold", "0.5"]).is_err());
        assert!(parse(&["analyze", "--predict-vs", "r.json", "--threshold", "2"]).is_err());
        assert!(parse(&["analyze", "--predict-vs", "r.json", "--coverage"]).is_err());
        assert!(parse(&["run"]).is_err());
        assert!(parse(&["run", "x", "--ftq"]).is_err());
        assert!(parse(&["run", "x", "--ftq", "zero"]).is_err());
        assert!(parse(&["run", "x", "--ftq", "0"]).is_err());
        assert!(parse(&["gen", "w"]).is_err());
        assert!(parse(&["asmdb", "x"]).is_err());
        assert!(parse(&["suite", "--bogus"]).is_err());
        assert!(parse(&["bench", "--asmdb", "bogus"]).is_err());
        assert!(parse(&["bench", "--threads"]).is_err());
        assert!(parse(&["bench", "--bogus"]).is_err());
        assert!(parse(&["run", "x", "--sample-stride", "0"]).is_err());
        assert!(parse(&["report"]).is_err());
        assert!(parse(&["report", "a.json", "b.json"]).is_err());
        assert!(parse(&["report", "--diff", "a.json"]).is_err());
        assert!(parse(&["report", "--diff", "a", "b", "c"]).is_err());
        assert!(parse(&["report", "--bogus", "a.json"]).is_err());
        assert!(parse(&["serve", "--workers", "0"]).is_err());
        assert!(parse(&["serve", "--queue-depth", "0"]).is_err());
        assert!(parse(&["serve", "--max-conns", "0"]).is_err());
        assert!(parse(&["serve", "--keep-alive-timeout", "0"]).is_err());
        assert!(parse(&["serve", "--bogus"]).is_err());
        assert!(parse(&["fleet"]).is_err());
        assert!(parse(&["fleet", "stop"]).is_err());
        assert!(parse(&["fleet", "run"]).is_err());
        assert!(parse(&["fleet", "run", "--offline", "--worker", "a:1"]).is_err());
        assert!(parse(&["fleet", "run", "--worker", "a:1", "--shard-timeout", "0"]).is_err());
        assert!(parse(&["fleet", "run", "--worker", "a:1", "--retries", "0"]).is_err());
        assert!(parse(&["fleet", "run", "--worker", "a:1", "--retries", "4294967296"]).is_err());
        assert!(parse(&["fleet", "run", "--worker", "a:1", "--retries", "4294967297"]).is_err());
        assert!(parse(&["fleet", "run", "--offline", "--bogus"]).is_err());
        assert!(parse(&["fleet", "run", "--worker", "a:1", "--cache-dir", "d"]).is_err());
        assert!(parse(&["fleet", "run", "--offline", "--retries", "7"]).is_err());
        assert!(parse(&["fleet", "run", "--offline", "--shard-timeout", "30"]).is_err());
        assert!(parse(&["fleet", "run", "--worker", "A", "--job-threads", "2"]).is_err());
    }

    #[test]
    fn bench_usage_lists_every_registered_experiment() {
        let (_, names) = USAGE
            .split_once("NAME:")
            .expect("the bench usage lists the experiment names");
        let listed: Vec<&str> = names
            .lines()
            .take_while(|l| !l.trim_start().starts_with("swip "))
            .flat_map(str::split_whitespace)
            .collect();
        let registered: Vec<&str> = swip_bench::figures::FIGURES
            .iter()
            .map(|&(n, _)| n)
            .collect();
        assert_eq!(listed, registered);
    }

    #[test]
    fn bench_with_zero_knobs_is_a_build_error() {
        let err = execute(Command::Bench {
            figure: "fig8".into(),
            prefetchers: vec![],
            instructions: 1_000,
            stride: 0,
            threads: None,
            asmdb: swip_bench::AsmdbTuning::Default,
            cache_dir: None,
        })
        .unwrap_err();
        assert!(err.to_string().contains("stride"), "{err}");
    }

    #[test]
    fn gen_run_inspect_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join("swip_cli_test.swip").display().to_string();
        execute(Command::Gen {
            workload: "secret_crypto52".into(),
            out: path.clone(),
            instructions: 5_000,
        })
        .unwrap();
        execute(Command::Inspect { file: path.clone() }).unwrap();
        let trace_json = dir.join("swip_cli_test_trace.json").display().to_string();
        execute(Command::Run {
            file: path.clone(),
            ftq: 4,
            timeline: Some(trace_json.clone()),
            sample_stride: 32,
        })
        .unwrap();
        let text = std::fs::read_to_string(&trace_json).unwrap();
        assert!(text.contains("traceEvents"));
        let _ = std::fs::remove_file(&trace_json);
        assert_eq!(
            execute(Command::Analyze {
                file: Some(path.clone()),
                json: true,
                coverage: true,
                predict_vs: None,
                threshold: swip_analyze::DivergenceThreshold::default(),
            })
            .unwrap(),
            0
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn analyze_exit_codes_follow_diff_convention() {
        let analyze = |file: Option<String>, predict_vs: Option<String>| {
            execute(Command::Analyze {
                file,
                json: false,
                coverage: false,
                predict_vs,
                threshold: swip_analyze::DivergenceThreshold::default(),
            })
            .unwrap()
        };
        // Undecodable bytes and missing files are "unreadable input" → 2.
        let dir = std::env::temp_dir();
        let path = dir.join("swip_cli_corrupt.swip").display().to_string();
        std::fs::write(&path, b"not a trace").unwrap();
        assert_eq!(analyze(Some(path.clone()), None), 2);
        let _ = std::fs::remove_file(&path);
        assert_eq!(analyze(Some("/no/such/trace.swip".into()), None), 2);
        assert_eq!(analyze(None, Some("/no/such/report.json".into())), 2);
        // A decodable trace with error diagnostics → 1.
        let trace = swip_trace::Trace::from_instructions(
            "bad",
            vec![
                swip_types::Instruction::alu(swip_types::Addr::new(0x0)),
                swip_types::Instruction::alu(swip_types::Addr::new(0x900)),
            ],
        );
        let path = dir
            .join("swip_cli_discontinuous.swip")
            .display()
            .to_string();
        trace.write_to(File::create(&path).unwrap()).unwrap();
        assert_eq!(analyze(Some(path.clone()), None), 1);
        let _ = std::fs::remove_file(&path);
        // A report with nothing to compare → 2.
        let path = dir.join("swip_cli_nocov.json").display().to_string();
        let mut report = swip_report::RunReport::new("all", 1_000, 48, 1);
        report.seal();
        std::fs::write(&path, report.to_json()).unwrap();
        assert_eq!(analyze(None, Some(path.clone())), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn report_summary_and_diff_round_trip() {
        let dir = std::env::temp_dir();
        let a = dir.join("swip_cli_report_a.json").display().to_string();
        let b = dir.join("swip_cli_report_b.json").display().to_string();
        let mut report = swip_report::RunReport::new("all", 1_000, 48, 1);
        report.workloads.push(swip_report::WorkloadReport {
            name: "w".into(),
            job_seconds: 0.1,
            coverage: Vec::new(),
            configs: vec![swip_report::ConfigReport {
                config: "ftq2_fdp".into(),
                prefetcher: String::new(),
                counters: vec![("cycles".into(), 100)],
                values: vec![],
            }],
        });
        report.seal();
        std::fs::write(&a, report.to_json()).unwrap();
        report.workloads[0].configs[0].counters[0].1 = 90;
        std::fs::write(&b, report.to_json()).unwrap();

        assert_eq!(
            execute(Command::Report {
                files: vec![a.clone()],
            })
            .unwrap(),
            0
        );
        // diff(1) codes: identical → 0, different → 1, unreadable → 2.
        assert_eq!(
            execute(Command::Report {
                files: vec![a.clone(), a.clone()],
            })
            .unwrap(),
            0
        );
        assert_eq!(
            execute(Command::Report {
                files: vec![a.clone(), b.clone()],
            })
            .unwrap(),
            1
        );
        assert_eq!(
            execute(Command::Report {
                files: vec![a.clone(), "/no/such/report.json".into()],
            })
            .unwrap(),
            2
        );
        std::fs::write(&b, "{}").unwrap();
        assert_eq!(
            execute(Command::Report {
                files: vec![a.clone(), b.clone()],
            })
            .unwrap(),
            2
        );
        // A malformed file is a readable error for the summary form too,
        // not a panic.
        let err = execute(Command::Report {
            files: vec![b.clone()],
        })
        .unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    #[test]
    fn fleet_offline_writes_a_plan_report() {
        let dir = std::env::temp_dir();
        let out = dir
            .join("swip_cli_fleet_offline.json")
            .display()
            .to_string();
        execute(Command::Fleet {
            workers: vec![],
            offline: true,
            instructions: 2_000,
            stride: 48,
            workloads: vec![],
            configs: vec!["ftq2_fdp".into()],
            prefetchers: vec![],
            job_threads: Some(1),
            out: Some(out.clone()),
            shard_timeout: 120,
            retries: 3,
        })
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let report = swip_report::RunReport::from_json_str(&text).unwrap();
        assert_eq!(report.figure, "plan");
        assert_eq!(report.workloads.len(), 1);
        let _ = std::fs::remove_file(&out);
        // An unknown config label is a typed plan-admission error.
        let err = execute(Command::Fleet {
            workers: vec![],
            offline: true,
            instructions: 2_000,
            stride: 48,
            workloads: vec![],
            configs: vec!["turbo".into()],
            prefetchers: vec![],
            job_threads: Some(1),
            out: None,
            shard_timeout: 120,
            retries: 3,
        })
        .unwrap_err();
        assert!(err.to_string().contains("turbo"), "{err}");
    }

    #[test]
    fn unknown_workload_is_a_usage_error() {
        let err = execute(Command::Gen {
            workload: "nope".into(),
            out: "/dev/null".into(),
            instructions: 1_000,
        })
        .unwrap_err();
        assert!(err.to_string().contains("unknown workload"));
    }
}
