//! The traced pass (`--trace 1`): the per-layer metrics.
//!
//! End-to-end metrics never come from this pass, because timing every
//! call costs time itself. Spans wrap the calls into each layer from the
//! benchmark's side: trace generation and the AsmDB pipeline (at the
//! session memo, which runs `generate` and `Asmdb::run` once per trace),
//! the trace codec, the coverage evaluation serve admission makes, the
//! three constructors, the engine sweep and `build_plan_report`. The cycle
//! loop runs as a replica of `Simulator::run` built from the public
//! `Frontend::cycle`, `Backend::dispatch`, `Backend::cycle` and
//! `Frontend::handle_resolution`, timed per call. Each replica run must
//! end on the engine's cycle and retired counts for the same job, or it is
//! a failed operation and the pass withholds the replica's figures as
//! stale. A short serve pass gives the serve layer's figures from client
//! timestamps and the job resource's queue and run seconds. The spans are
//! kept in memory and written to `.perfbench/spans-<workload>.tsv` at the
//! end.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use swip_analyze::{evaluate_plan, CoverageConfig};
use swip_asmdb::{AsmdbOutput, Cfg};
use swip_bench::{build_plan_report, ConfigId, WorkloadResults};
use swip_cache::MemoryHierarchy;
use swip_core::{Backend, SimConfig};
use swip_frontend::{Frontend, HintTable, ManaPrefetcher, ShadowBtbPrefetcher};
use swip_report::ConfigReport;
use swip_trace::Trace;
use swip_types::PrefetcherId;

use crate::serve;
use crate::stats;
use crate::sweep::Sweep;
use crate::workload::Workload;
use crate::{fig1_note, Metric, Outcome};

/// Constructions timed per configuration for `core.construct_us`.
const CONSTRUCTIONS: usize = 20;

/// The spans of one pass, kept in memory until it ends.
struct Spans {
    origin: Instant,
    rows: Vec<Span>,
}

struct Span {
    name: String,
    parent: Option<usize>,
    start: Duration,
    len: Duration,
    calls: u64,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            rows: Vec::new(),
        }
    }

    fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        self.rows.push(Span {
            name: name.to_string(),
            parent,
            start: self.origin.elapsed(),
            len: Duration::ZERO,
            calls: 1,
        });
        self.rows.len() - 1
    }

    /// Ends span `id` and returns its length in seconds.
    fn close(&mut self, id: usize) -> f64 {
        let span = &mut self.rows[id];
        span.len = self.origin.elapsed() - span.start;
        span.len.as_secs_f64()
    }

    /// Runs `f` inside a span under `parent`; returns its value and
    /// seconds.
    fn time<T>(&mut self, name: &str, parent: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, Some(parent));
        let value = f();
        (value, self.close(id))
    }

    /// Records the summed time of a call made `calls` times inside
    /// `parent` (once per simulated cycle) as a single row.
    fn aggregate(&mut self, name: &str, parent: usize, len: Duration, calls: u64) {
        let start = self.rows[parent].start;
        self.rows.push(Span {
            name: name.to_string(),
            parent: Some(parent),
            start,
            len,
            calls,
        });
    }

    /// Writes the spans as a table, each with its self time: its length
    /// minus the time its child spans cover.
    fn write(&self, workload: &str) -> Result<String, String> {
        let mut children = vec![Duration::ZERO; self.rows.len()];
        for span in &self.rows {
            if let Some(p) = span.parent {
                children[p] += span.len;
            }
        }
        let mut out = String::from("id\tparent\tname\tstart_us\tlen_us\tself_us\tcalls\n");
        for (i, span) in self.rows.iter().enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{i}\t{parent}\t{}\t{:.1}\t{:.1}\t{:.1}\t{}\n",
                span.name,
                span.start.as_secs_f64() * 1e6,
                span.len.as_secs_f64() * 1e6,
                span.len.saturating_sub(children[i]).as_secs_f64() * 1e6,
                span.calls
            ));
        }
        let path = format!(".perfbench/spans-{workload}.tsv");
        fs::create_dir_all(".perfbench")
            .and_then(|()| fs::write(&path, out))
            .map_err(|e| format!("writing {path}: {e}"))?;
        Ok(path)
    }
}

/// Counts and per-call host time from replica runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replica {
    /// Simulated cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub retired: u64,
    /// False when the cycle watchdog cut the run off.
    pub completed: bool,
    /// Cycles with no decode, dispatch, branch resolution or retirement.
    pub quiet: u64,
    /// In `Frontend::cycle`.
    pub frontend: Duration,
    /// In `Backend::dispatch`.
    pub dispatch: Duration,
    /// In `Backend::cycle`.
    pub backend: Duration,
    /// In `Frontend::handle_resolution`.
    pub resolution: Duration,
    /// The whole run, construction included.
    pub wall: Duration,
}

impl Replica {
    fn add(&mut self, r: &Replica) {
        self.cycles += r.cycles;
        self.retired += r.retired;
        self.quiet += r.quiet;
        self.frontend += r.frontend;
        self.dispatch += r.dispatch;
        self.backend += r.backend;
        self.resolution += r.resolution;
        self.wall += r.wall;
    }
}

/// Simulates `trace` under `config` as `Simulator::run` does — the same
/// constructors, prefetcher set-up, loop and watchdog — timing each
/// per-cycle call into the front-end and the backend.
pub fn replica(config: &SimConfig, trace: &Trace, hints: Option<Arc<HintTable>>) -> Replica {
    let start = Instant::now();
    let mut frontend = Frontend::new(config.frontend.clone());
    match config.prefetcher {
        PrefetcherId::Fdp | PrefetcherId::Asmdb => {}
        PrefetcherId::Mana => frontend.set_prefetcher(Box::new(ManaPrefetcher::new())),
        PrefetcherId::ShadowBtb => frontend.set_prefetcher(Box::new(ShadowBtbPrefetcher::new())),
    }
    if let Some(table) = hints {
        frontend.set_hint_table(table);
    }
    let mut mem = MemoryHierarchy::new(config.memory.clone());
    let mut backend = Backend::new(config.backend);

    let watchdog = (trace.len() as u64)
        .saturating_mul(config.max_cycles_per_instr)
        .max(100_000);
    let mut r = Replica {
        completed: true,
        ..Replica::default()
    };
    let mut now = 0u64;
    let mut decoded = Vec::with_capacity(config.frontend.decode_width);
    let mut resolved = Vec::new();
    while !(frontend.is_done(trace) && backend.is_empty()) {
        decoded.clear();
        let retired = backend.retired();
        let t0 = Instant::now();
        frontend.cycle(now, trace, &mut mem, backend.free_slots(), &mut decoded);
        let t1 = Instant::now();
        for d in &decoded {
            backend.dispatch(*d, trace.instructions()[d.seq as usize], now);
        }
        let t2 = Instant::now();
        backend.cycle(now, &mut mem, &mut resolved);
        let t3 = Instant::now();
        for b in &resolved {
            frontend.handle_resolution(b.seq, &trace.instructions()[b.seq as usize], b.at);
        }
        let t4 = Instant::now();
        r.frontend += t1 - t0;
        r.dispatch += t2 - t1;
        r.backend += t3 - t2;
        r.resolution += t4 - t3;
        if decoded.is_empty() && resolved.is_empty() && backend.retired() == retired {
            r.quiet += 1;
        }
        now += 1;
        if now >= watchdog {
            r.completed = false;
            break;
        }
    }
    r.cycles = now.max(1);
    r.retired = backend.retired();
    r.wall = start.elapsed();
    r
}

/// What the engine simulates for `id`: the original trace, the
/// AsmDB-rewritten trace, or the original with the no-overhead hints.
fn job_input<'a>(
    id: ConfigId,
    trace: &'a Trace,
    out: &'a AsmdbOutput,
) -> (&'a Trace, Option<Arc<HintTable>>) {
    match id {
        ConfigId::AsmdbCons | ConfigId::AsmdbFdp => (&out.rewritten, None),
        ConfigId::AsmdbConsNoov | ConfigId::AsmdbFdpNoov => {
            (trace, Some(Arc::clone(&out.hint_table)))
        }
        ConfigId::Base | ConfigId::Fdp | ConfigId::Mana | ConfigId::ShadowBtb => (trace, None),
    }
}

/// Runs the traced pass of `w`. Its inputs are the same under every
/// seed.
pub fn run(w: &'static Workload) -> Result<Outcome, String> {
    let mut spans = Spans::new();
    let pass = spans.open(&format!("traced_pass {}", w.name), None);
    let specs = w.specs();
    let sample = w.traced_specs();
    let session = w.session()?;
    let mut gate = w.gate();
    let mut m = Vec::new();
    let mut notes = Vec::new();

    // workloads: generation, at the session memo.
    let mut traces = Vec::with_capacity(specs.len());
    let mut gen_s = 0.0;
    for spec in &specs {
        let (trace, s) = spans.time("workloads.generate", pass, || session.trace(spec));
        gen_s += s;
        traces.push(trace);
    }
    let instrs: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let ns_per_instr = |s: f64| s * 1e9 / instrs as f64;
    m.push(Metric::value("workloads.gen_s", "s", gen_s));
    m.push(Metric::value(
        "workloads.gen_ns_per_instr",
        "ns/instr",
        ns_per_instr(gen_s),
    ));

    // trace: the codec, with the round trip checked.
    let (mut encode_s, mut decode_s, mut bytes) = (0.0, 0.0, 0usize);
    for trace in &traces {
        let mut buf = Vec::new();
        let (written, s) = spans.time("trace.encode", pass, || trace.write_to(&mut buf));
        encode_s += s;
        let (decoded, s) = spans.time("trace.decode", pass, || Trace::read_from(buf.as_slice()));
        decode_s += s;
        bytes += buf.len();
        let why = match (written, decoded) {
            (Err(e), _) => vec![format!("encoding failed: {e}")],
            (_, Err(e)) => vec![format!("decoding failed: {e}")],
            (_, Ok(back)) if back != **trace => vec!["the decoded trace differs".to_string()],
            _ => Vec::new(),
        };
        gate.record(&format!("codec {}", trace.name()), why);
    }
    m.push(Metric::value(
        "trace.encode_ns_per_instr",
        "ns/instr",
        ns_per_instr(encode_s),
    ));
    m.push(Metric::value(
        "trace.decode_ns_per_instr",
        "ns/instr",
        ns_per_instr(decode_s),
    ));
    m.push(Metric::value(
        "trace.bytes_per_instr",
        "bytes/instr",
        bytes as f64 / instrs as f64,
    ));

    // asmdb: profile, plan and rewrite, at the session memo.
    let mut asmdb_s = 0.0;
    let mut outs = Vec::with_capacity(specs.len());
    for spec in &specs {
        let (out, s) = spans.time("asmdb.run", pass, || session.asmdb(spec));
        asmdb_s += s;
        outs.push(out);
    }
    let insertions: usize = outs.iter().map(|o| o.plan.insertions.len()).sum();
    let inserted: u64 = outs.iter().map(|o| o.report.inserted_dynamic).sum();
    let original: u64 = outs.iter().map(|o| o.report.original_len).sum();
    m.push(Metric::value("asmdb.run_s", "s", asmdb_s));
    m.push(Metric::value(
        "asmdb.insertions",
        "count",
        insertions as f64,
    ));
    m.push(Metric::value(
        "asmdb.dynamic_bloat_pct",
        "%",
        inserted as f64 * 100.0 / original as f64,
    ));

    // analyze: the coverage evaluation serve admission runs per workload.
    let mut coverage_s = 0.0;
    for (trace, out) in traces.iter().zip(&outs) {
        let (_, s) = spans.time("analyze.coverage", pass, || {
            let cfg = Cfg::from_trace(trace);
            let entry = trace
                .instructions()
                .first()
                .and_then(|i| cfg.block_of(i.pc));
            black_box(evaluate_plan(
                &cfg,
                entry,
                &out.plan,
                &CoverageConfig::default(),
            ))
        });
        coverage_s += s;
    }
    m.push(Metric::value("analyze.coverage_ms", "ms", coverage_s * 1e3));

    // core: the three constructors every run pays for.
    let mut construct_us = Vec::new();
    for id in ConfigId::ALL {
        let config = id.sim_config();
        for _ in 0..CONSTRUCTIONS {
            let (parts, s) = spans.time("core.construct", pass, || {
                (
                    Frontend::new(config.frontend.clone()),
                    MemoryHierarchy::new(config.memory.clone()),
                    Backend::new(config.backend),
                )
            });
            black_box(&parts);
            construct_us.push(s * 1e6);
        }
    }
    m.push(Metric::median_of("core.construct_us", "us", &construct_us));

    // bench: the engine sweep; core: its per-configuration run time.
    let (sweep, _) = spans.time("bench.sweep", pass, || {
        Sweep::run(&session, &sample, &ConfigId::ALL)
    });
    let sweep = sweep?;
    let cells = sweep.by_trace();
    for (trace, configs) in &cells {
        gate.count_configs(trace, configs);
    }
    let job_s: f64 = sweep.job_seconds().sum();
    m.push(Metric::value(
        "bench.engine_overhead_ms",
        "ms",
        (sweep.wall_s - job_s) * 1e3,
    ));
    for (id, results) in &sweep.results {
        let seconds: f64 = results.iter().map(WorkloadResults::job_seconds).sum();
        m.push(Metric::value(
            format!("core.run_s.{}", id.label()),
            "s",
            seconds,
        ));
    }
    let total = |counter: &str| -> u64 {
        cells
            .values()
            .flatten()
            .filter_map(|c| c.counter(counter))
            .sum()
    };
    m.push(Metric::value(
        "core.ns_per_instr",
        "ns/instr",
        job_s * 1e9 / total("instructions") as f64,
    ));
    m.push(Metric::value(
        "core.ns_per_cycle",
        "ns/cycle",
        job_s * 1e9 / total("cycles") as f64,
    ));

    // report: one plan report per configuration of the sweep.
    let (mut build_s, mut report_bytes) = (0.0, 0usize);
    for (_, results) in &sweep.results {
        let (json, s) = spans.time("report.build", pass, || {
            build_plan_report(&session, results).to_json()
        });
        build_s += s;
        report_bytes += json.len();
    }
    m.push(Metric::value("report.build_ms", "ms", build_s * 1e3));
    m.push(Metric::value("report.bytes", "bytes", report_bytes as f64));

    // core and frontend: the replica of the cycle loop.
    let loop_span = spans.open("core.replica", Some(pass));
    let mut sum = Replica::default();
    let mut stale = false;
    for spec in &sample {
        let (trace, out) = (session.trace(spec), session.asmdb(spec));
        for id in ConfigId::ALL {
            let (input, hints) = job_input(id, &trace, &out);
            let r = replica(&id.sim_config(), input, hints);
            let engine = cells
                .get(&spec.name)
                .and_then(|configs| configs.iter().find(|c| c.config == id.label()))
                .map(|c| (c.counter("cycles"), c.counter("instructions")));
            let why = if r.completed && engine == Some((Some(r.cycles), Some(r.retired))) {
                Vec::new()
            } else {
                vec![format!(
                    "the replica ends on {} cycles and {} retired, Simulator::run on {engine:?}",
                    r.cycles, r.retired
                )]
            };
            stale |= !why.is_empty();
            gate.record(&format!("replica {}/{}", spec.name, id.label()), why);
            sum.add(&r);
        }
    }
    spans.close(loop_span);
    for (name, len) in [
        ("frontend.cycle", sum.frontend),
        ("backend.dispatch", sum.dispatch),
        ("backend.cycle", sum.backend),
        ("frontend.handle_resolution", sum.resolution),
    ] {
        spans.aggregate(name, loop_span, len, sum.cycles);
    }
    if stale {
        notes.push(
            "the replica is stale: it no longer reproduces Simulator::run, so its figures \
             are withheld"
                .to_string(),
        );
    } else {
        m.push(Metric::value(
            "core.quiet_cycle_share",
            "ratio",
            sum.quiet as f64 / sum.cycles as f64,
        ));
        m.push(Metric::value(
            "core.backend_cycle_s",
            "s",
            sum.backend.as_secs_f64(),
        ));
        m.push(Metric::value(
            "core.dispatch_s",
            "s",
            sum.dispatch.as_secs_f64(),
        ));
        m.push(Metric::value(
            "frontend.cycle_s",
            "s",
            sum.frontend.as_secs_f64(),
        ));
        m.push(Metric::value(
            "frontend.resolution_s",
            "s",
            sum.resolution.as_secs_f64(),
        ));
        m.push(Metric::value(
            "trace_overhead_pct",
            "%",
            (sum.wall.as_secs_f64() - job_s) * 100.0 / job_s,
        ));
    }

    // Modelled counts: simulated, so they repeat exactly.
    m.extend(modelled(&cells));

    // serve: one request per sampled trace, on a fresh server.
    let names: Vec<String> = sample.iter().map(|s| s.name.clone()).collect();
    let (served, _) = spans.time("serve.pass", pass, || serve::pass(w, &names));
    let served = served?;
    // The server runs the suite's own traces whatever the seed.
    let mut serve_gate = w.gate();
    for s in &served {
        serve::check_job(&mut serve_gate, s);
    }
    gate.absorb(serve_gate);
    let done: Vec<(&serve::JobSample, &serve::Served)> = served
        .iter()
        .filter_map(|s| Some((s, s.outcome.as_ref().ok()?)))
        .collect();
    let median_ms = |f: &dyn Fn(&serve::JobSample, &serve::Served) -> f64| {
        stats::median(&done.iter().map(|(s, d)| f(s, d) * 1e3).collect::<Vec<_>>())
    };
    m.push(Metric::value(
        "serve.queue_wait_ms",
        "ms",
        median_ms(&|_, d| d.queue_s),
    ));
    m.push(Metric::value(
        "serve.run_ms",
        "ms",
        median_ms(&|_, d| d.run_s),
    ));
    m.push(Metric::value(
        "serve.overhead_ms",
        "ms",
        median_ms(&|s, d| s.latency_s - d.queue_s - d.run_s),
    ));
    let polls: u64 = done.iter().map(|(_, d)| d.polls).sum();
    m.push(Metric::value(
        "serve.polls_per_job",
        "polls/job",
        polls as f64 / done.len() as f64,
    ));

    spans.close(pass);
    notes.push(format!("spans written to {}", spans.write(w.name)?));
    notes.push(fig1_note(&cells));
    Ok(Outcome {
        gate,
        repeats: 1,
        metrics: m,
        notes,
    })
}

/// The modelled per-configuration and total counts of `cells`, summed
/// over traces.
fn modelled(cells: &BTreeMap<String, Vec<ConfigReport>>) -> Vec<Metric> {
    let sum = |config: Option<&str>, counter: &str| -> f64 {
        cells
            .values()
            .flatten()
            .filter(|c| config.is_none_or(|label| c.config == label))
            .filter_map(|c| c.counter(counter))
            .sum::<u64>() as f64
    };
    let mut m = Vec::new();
    for id in ConfigId::ALL {
        let (l, c) = (id.label(), Some(id.label()));
        let useful = sum(c, "instructions") - sum(c, "prefetch_instructions");
        let ftq = sum(c, "ftq.cycles");
        m.push(Metric::value(
            format!("sim.cycles.{l}"),
            "cycles",
            sum(c, "cycles"),
        ));
        m.push(Metric::value(
            format!("sim.ipc.{l}"),
            "instr/cycle",
            useful / sum(c, "cycles"),
        ));
        m.push(Metric::value(
            format!("l1i.mpki.{l}"),
            "miss/kinstr",
            sum(c, "l1i.demand_misses") * 1000.0 / useful,
        ));
        m.push(Metric::value(
            format!("ftq.s1_share.{l}"),
            "ratio",
            sum(c, "ftq.s1_cycles") / ftq,
        ));
        m.push(Metric::value(
            format!("ftq.s3_share.{l}"),
            "ratio",
            sum(c, "ftq.s3_cycles") / ftq,
        ));
    }
    m.push(Metric::value(
        "ftq.head_stall_cycles",
        "cycles",
        sum(None, "ftq.head_stall_cycles"),
    ));
    m.push(Metric::value(
        "branch.btb_miss_rate",
        "ratio",
        1.0 - sum(None, "branch.btb_hits") / sum(None, "branch.btb_total"),
    ));
    m.push(Metric::value(
        "branch.mispredicts",
        "count",
        sum(None, "branch.mispredicts"),
    ));
    m.push(Metric::value(
        "backend.issue_idle_cycles",
        "cycles",
        sum(None, "backend.issue_idle_cycles"),
    ));
    m.push(Metric::value(
        "backend.rob_full_cycles",
        "cycles",
        sum(None, "backend.rob_full_cycles"),
    ));
    m.push(Metric::value(
        "l1i.useful_prefetches",
        "count",
        sum(None, "l1i.useful_prefetches"),
    ));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use swip_asmdb::{Asmdb, AsmdbConfig};
    use swip_core::Simulator;
    use swip_workloads::{cvp1_suite, generate};

    #[test]
    fn replica_reproduces_simulator_run() {
        let spec = cvp1_suite(3_000).remove(0);
        let trace = generate(&spec);
        let out = Asmdb::new(AsmdbConfig::default()).run(&trace, &SimConfig::conservative());
        for id in ConfigId::ALL {
            let (input, hints) = job_input(id, &trace, &out);
            let simulator = Simulator::new(id.sim_config());
            let want = match &hints {
                Some(table) => simulator.run_with_hint_table(input, Arc::clone(table)),
                None => simulator.run(input),
            };
            let got = replica(&id.sim_config(), input, hints);
            assert_eq!(
                (got.cycles, got.retired, got.completed),
                (want.cycles, want.instructions, want.completed),
                "{}",
                id.label()
            );
            assert!(got.quiet > 0 && got.quiet < got.cycles, "{}", id.label());
        }
    }
}
