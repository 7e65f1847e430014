//! The benchmark's workloads: which traces each runs, at what length,
//! and how the seed enters.
//!
//! Everything in a [`Workload`] is part of its definition. Results taken
//! under different definitions (see [`Workload::key`]) are never
//! compared with each other.

use swip_bench::{ConfigId, Session, SessionBuilder};
use swip_report::Json;
use swip_types::Fnv1a;
use swip_workloads::{cvp1_suite, WorkloadSpec};

use crate::gate::{Digests, Gate};
use crate::serve;

/// How a workload drives the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Serial in-process sweeps of all eight configurations, repeated in
    /// rounds for the run's `--seconds`; the first round always completes.
    Sweep,
    /// Closed-loop jobs against a `swip serve` child process. The timed
    /// job count is fixed: the server never evicts job records, so its
    /// memory grows with the count.
    Serve { jobs: usize },
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// The name the benchmark is invoked with.
    pub name: &'static str,
    /// How the workload drives the program.
    pub kind: Kind,
    /// Dynamic instructions per trace.
    pub instructions: u64,
    /// The traces it runs, by suite name; empty selects all 48.
    pub traces: &'static [&'static str],
    /// The traces the traced pass sweeps, replays through the replica
    /// loop and serves; empty selects all of `traces`.
    pub traced: &'static [&'static str],
    /// Whether all eight configurations must end on different cycle
    /// counts. The front-end-bound sweep and the serve workload run
    /// traces on which AsmDB inserts at their length; on the compact code
    /// it may insert nothing, and MANA may change nothing.
    pub distinct_cycles: bool,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    // Front-end-bound: server traces with large code footprints, where
    // the FTQ head stalls on L1-I misses (the paper's Scenarios 2 and 3),
    // the miss path, the prefetcher hooks and AsmDB's rewritten and
    // hinted paths do most of the work, and quiet stall cycles abound.
    Workload {
        name: "sweep_server",
        kind: Kind::Sweep,
        instructions: 1_000_000,
        traces: &["public_srv_60", "secret_srv12", "secret_srv504"],
        traced: &[],
        distinct_cycles: true,
    },
    // Backend-bound: compact crypto and integer kernels, where the FTQ
    // shoots through (Scenario 1), misses are rare, AsmDB inserts little
    // and the backend issues on most cycles.
    Workload {
        name: "sweep_compute",
        kind: Kind::Sweep,
        instructions: 1_000_000,
        traces: &[
            "secret_crypto52",
            "secret_crypto80",
            "secret_crypto90",
            "secret_int_124",
            "secret_int_948",
        ],
        traced: &[],
        distinct_cycles: false,
    },
    // Cold, short simulations through the service: per-run fixed costs
    // (construction, report assembly, engine dispatch) and the serve path
    // (HTTP, admission, queue, report JSON) are a visible share. The
    // server has all 48 traces in scope; requests go to the 19 on which,
    // at 50k instructions, AsmDB inserts and all eight configurations end
    // at least 150 cycles apart in two processes (README.md records the
    // search). On the others AsmDB inserts nothing at this length, so
    // half of each job would repeat the baseline's work.
    Workload {
        name: "serve_short_jobs",
        kind: Kind::Serve { jobs: 100 },
        instructions: 50_000,
        traces: &[
            "secret_srv12",
            "secret_srv21",
            "secret_srv222",
            "secret_srv225",
            "secret_srv259",
            "secret_srv32",
            "secret_srv426",
            "secret_srv442",
            "secret_srv48",
            "secret_srv495",
            "secret_srv537",
            "secret_srv61",
            "secret_srv617",
            "secret_srv727",
            "secret_srv73",
            "secret_srv757",
            "secret_srv764",
            "secret_srv771",
            "secret_srv85",
        ],
        traced: &[
            "secret_srv12",
            "secret_srv259",
            "secret_srv442",
            "secret_srv48",
            "secret_srv727",
            "secret_srv73",
        ],
        distinct_cycles: true,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The workload's trace specs: the paper suite's own, under every
    /// seed. The seed only orders the work (the jobs of a sweep round, the
    /// requests to the server). A seed that changed the programs would
    /// move `sim_ips` by up to a tenth on its own, as much as the noise of
    /// a shared host, and would leave the stored digests nothing to check.
    pub fn specs(&self) -> Vec<WorkloadSpec> {
        cvp1_suite(self.instructions)
            .into_iter()
            .filter(|s| self.traces.is_empty() || self.traces.contains(&s.name.as_str()))
            .collect()
    }

    /// The specs of the traced pass's sweep, replica loop and serve pass.
    pub fn traced_specs(&self) -> Vec<WorkloadSpec> {
        let mut specs = self.specs();
        if !self.traced.is_empty() {
            specs.retain(|s| self.traced.contains(&s.name.as_str()));
        }
        specs
    }

    /// A gate for this workload's results, held to the stored digests.
    pub fn gate(&self) -> Gate {
        Gate::new(self.name, Some(Digests::stored()), self.distinct_cycles)
    }

    /// A session with the knobs both the sweeps and `swip serve` use
    /// here: the whole suite in scope and one engine thread.
    pub fn session(&self) -> Result<Session, String> {
        SessionBuilder::new()
            .instructions(self.instructions)
            .threads(1)
            .build()
            .map_err(|e| e.to_string())
    }

    /// The serve workload's timed requests: its traces in turn up to the
    /// job count, so the mix is the same under every seed and only the
    /// order, shuffled by `seed`, changes.
    pub fn job_order(&self, seed: u64) -> Vec<String> {
        let Kind::Serve { jobs } = self.kind else {
            return Vec::new();
        };
        let names: Vec<String> = self.specs().into_iter().map(|s| s.name).collect();
        let mut order: Vec<String> = names.iter().cycle().take(jobs).cloned().collect();
        shuffle(&mut order, seed);
        order
    }

    /// The definition as recorded with every result. A run's repetition
    /// count is recorded beside it, not in it: a sweep repeats its rounds
    /// for as long as the run lasts.
    pub fn definition(&self) -> Json {
        let names = |specs: Vec<WorkloadSpec>| {
            Json::Arr(specs.into_iter().map(|s| Json::Str(s.name)).collect())
        };
        let kind = match self.kind {
            Kind::Sweep => "sweep",
            Kind::Serve { .. } => "serve",
        };
        let mut pairs = vec![
            ("name", Json::Str(self.name.into())),
            ("kind", Json::Str(kind.into())),
            ("instructions", Json::U64(self.instructions)),
            ("traces", names(self.specs())),
            ("traced", names(self.traced_specs())),
            (
                "configs",
                Json::Arr(
                    ConfigId::ALL
                        .iter()
                        .map(|c| Json::Str(c.label().into()))
                        .collect(),
                ),
            ),
            ("distinct_cycles", Json::Bool(self.distinct_cycles)),
        ];
        if let Kind::Serve { jobs } = self.kind {
            pairs.extend([
                ("jobs", Json::U64(jobs as u64)),
                ("clients", Json::U64(serve::CLIENTS as u64)),
                ("workers", Json::U64(serve::WORKERS as u64)),
                ("job_threads", Json::U64(serve::JOB_THREADS as u64)),
                ("queue_depth", Json::U64(serve::QUEUE_DEPTH as u64)),
            ]);
        }
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A digest of the definition.
    pub fn key(&self) -> String {
        let mut h = Fnv1a::new();
        h.field(self.definition().render().as_bytes());
        h.finish()
    }
}

/// A Fisher–Yates shuffle over a splitmix64 stream: the same seed gives
/// the same order.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        items.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_runs_the_paper_suite() {
        let suite = cvp1_suite(1_000_000);
        let sweep = Workload::named("sweep_server").unwrap();
        assert_eq!(sweep.specs().len(), sweep.traces.len());
        assert!(sweep.specs().iter().all(|s| suite.contains(s)));
        let serve = Workload::named("serve_short_jobs").unwrap();
        let short = cvp1_suite(serve.instructions);
        assert!(serve.specs().iter().all(|s| short.contains(s)));
    }

    #[test]
    fn serve_job_count_lets_the_tail_rule_reach_p90() {
        let serve = Workload::named("serve_short_jobs").unwrap();
        let latencies = vec![1.0; serve.job_order(0).len()];
        let tail = crate::stats::tail(&latencies).map(|t| t.per_mille);
        assert_eq!(tail, Some(900));
    }

    #[test]
    fn request_order_is_seeded_and_keeps_the_mix() {
        let serve = Workload::named("serve_short_jobs").unwrap();
        let a = serve.job_order(1);
        assert_eq!(Kind::Serve { jobs: a.len() }, serve.kind);
        assert_eq!(a, serve.job_order(1));
        assert_ne!(a, serve.job_order(2));
        let (mut x, mut y) = (a, serve.job_order(2));
        x.sort();
        y.sort();
        assert_eq!(x, y, "every seed runs the same mix of jobs");
    }

    #[test]
    fn trace_lists_name_suite_traces() {
        for w in &WORKLOADS {
            let all = if w.traces.is_empty() {
                48
            } else {
                w.traces.len()
            };
            assert_eq!(w.specs().len(), all, "{}", w.name);
            let traced = if w.traced.is_empty() {
                all
            } else {
                w.traced.len()
            };
            assert_eq!(w.traced_specs().len(), traced, "{}", w.name);
        }
    }
}
