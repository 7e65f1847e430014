//! The end-to-end AsmDB pipeline: profile → analyze → rewrite.

use std::sync::Arc;

use swip_core::{HintTable, SimConfig, SimReport, Simulator};
use swip_trace::Trace;

use crate::rewrite::{rewrite_trace, RewriteReport};
use crate::select::{plan_insertions, select_targets};
use crate::{Cfg, Plan};

/// AsmDB tuning knobs.
///
/// The defaults follow the paper's description: high-impact misses are
/// selected by rank until 90% of misses are covered, prefetches land between
/// the minimum distance (IPC × LLC latency) and a window of 4× that, and an
/// insertion site must reach the target with probability ≥ 0.35 (the
/// complement of the fanout criterion — the paper tunes this aggressiveness
/// knob, trading accuracy for coverage).
#[derive(Clone, Debug)]
pub struct AsmdbConfig {
    /// Minimum profiled misses for a line to be considered.
    pub min_misses: u64,
    /// Fraction of total misses the target list should cover.
    pub miss_coverage: f64,
    /// Hard cap on the number of target lines.
    pub max_targets: usize,
    /// Minimum reach probability for an insertion site (inverse-fanout).
    pub min_reach: f64,
    /// Maximum insertion sites per target.
    pub max_sites_per_target: usize,
    /// Window = `window_factor` × minimum distance.
    pub window_factor: u64,
    /// Lower bound on the minimum distance (instructions), guarding against
    /// degenerate IPC measurements.
    pub min_distance_floor: u64,
}

impl Default for AsmdbConfig {
    fn default() -> Self {
        AsmdbConfig {
            min_misses: 3,
            miss_coverage: 0.92,
            max_targets: 8192,
            min_reach: 0.30,
            max_sites_per_target: 2,
            window_factor: 6,
            min_distance_floor: 8,
        }
    }
}

impl AsmdbConfig {
    /// A more aggressive configuration: lower reach threshold and more
    /// sites per target (higher coverage, more bloat — the trade the paper
    /// discusses in §V.A).
    pub fn aggressive() -> Self {
        AsmdbConfig {
            min_reach: 0.15,
            max_sites_per_target: 3,
            miss_coverage: 0.97,
            ..Self::default()
        }
    }
}

/// Everything the pipeline produces for one workload.
#[derive(Clone, Debug)]
pub struct AsmdbOutput {
    /// The profiling run's report (includes the line-miss profile).
    pub profile: SimReport,
    /// The insertion plan.
    pub plan: Plan,
    /// The rewritten trace with `prefetch.i` instructions and shifted
    /// addresses.
    pub rewritten: Trace,
    /// Bloat accounting (Fig 7).
    pub report: RewriteReport,
    /// No-overhead hints equivalent to the plan, for the idealized
    /// configurations (applied to the *original* trace), as a prebuilt
    /// shared table: built once here so every no-overhead simulation of
    /// this workload shares one copy by `Arc`.
    pub hint_table: Arc<HintTable>,
    /// The minimum distance used (IPC × LLC latency, floored).
    pub min_distance: u64,
}

/// The AsmDB software instruction prefetcher.
///
/// See the crate-level docs for the pipeline description and an example.
#[derive(Clone, Debug)]
pub struct Asmdb {
    config: AsmdbConfig,
}

impl Asmdb {
    /// Creates a pipeline with the given tuning.
    pub fn new(config: AsmdbConfig) -> Self {
        Asmdb { config }
    }

    /// The pipeline's tuning knobs.
    pub fn config(&self) -> &AsmdbConfig {
        &self.config
    }

    /// Runs the profiling stage: one simulation of `trace` under
    /// `sim_config` with line-miss profiling enabled.
    pub fn profile(&self, trace: &Trace, sim_config: &SimConfig) -> SimReport {
        let mut cfg = sim_config.clone();
        cfg.collect_line_profile = true;
        Simulator::new(cfg).run(trace)
    }

    /// Runs the analysis stage against an existing profile, producing the
    /// insertion plan.
    pub fn plan(&self, trace: &Trace, profile: &SimReport, sim_config: &SimConfig) -> (Plan, u64) {
        let cfg = Cfg::from_trace(trace);
        let targets = select_targets(
            &cfg,
            &profile.line_misses,
            self.config.min_misses,
            self.config.miss_coverage,
            self.config.max_targets,
        );
        // "AsmDB approximates distance by multiplying an application's IPC
        // by the LLC's access latency."
        let min_distance = ((profile.effective_ipc * sim_config.memory.llc_round_trip() as f64)
            .ceil() as u64)
            .max(self.config.min_distance_floor);
        let window = min_distance * self.config.window_factor;
        let plan = plan_insertions(
            &cfg,
            &targets,
            min_distance,
            window,
            self.config.min_reach,
            self.config.max_sites_per_target,
        );
        (plan, min_distance)
    }

    /// Runs the whole pipeline: profile, analyze, rewrite, and derive
    /// no-overhead hints.
    pub fn run(&self, trace: &Trace, sim_config: &SimConfig) -> AsmdbOutput {
        let profile = self.profile(trace, sim_config);
        let (plan, min_distance) = self.plan(trace, &profile, sim_config);
        let (rewritten, report) = rewrite_trace(trace, &plan);
        let hint_table = Arc::new(HintTable::from_pc_map(&plan.to_hints()));
        AsmdbOutput {
            profile,
            plan,
            rewritten,
            report,
            hint_table,
            min_distance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swip_trace::TraceBuilder;
    use swip_types::{Addr, InstrKind};

    /// A call-chain workload: an outer loop walks 32 call sites, each with a
    /// *fixed* cold callee. The chain's code (≈ 200+ lines) thrashes the
    /// tiny 4 KiB L1-I, so every callee line misses each iteration, and
    /// single-predecessor paths give AsmDB reach-1.0 insertion sites.
    fn missy_trace() -> Trace {
        let mut b = TraceBuilder::new("missy");
        let sites = 32u64;
        let caller_base = |k: u64| Addr::new(0x1000 + k * 0x68); // 26-instr span each
        let callee_base = |k: u64| Addr::new(0x100_000 + k * 0x1a8);
        for _ in 0..60 {
            for k in 0..sites {
                b.set_pc(caller_base(k));
                for _ in 0..7 {
                    b.alu();
                }
                b.call(callee_base(k));
                for _ in 0..15 {
                    b.alu();
                }
                b.ret(caller_base(k).add(8 * 4));
                if k + 1 < sites {
                    b.jump(caller_base(k + 1));
                } else {
                    b.jump(caller_base(0));
                }
            }
        }
        b.finish()
    }

    #[test]
    fn pipeline_targets_cold_lines_and_rewrites() {
        let trace = missy_trace();
        let asmdb = Asmdb::new(AsmdbConfig {
            min_misses: 2,
            ..AsmdbConfig::default()
        });
        let out = asmdb.run(&trace, &SimConfig::test_scale());
        assert!(out.profile.completed);
        assert!(
            !out.plan.is_empty(),
            "cold call targets must attract prefetches (profile had {} miss lines)",
            out.profile.line_misses.len()
        );
        assert!(out.report.inserted_dynamic > 0);
        assert!(out.report.static_bloat > 0.0);
        assert!(out.rewritten.len() > trace.len());
        // Hints and rewrites describe the same plan.
        for i in &out.plan.insertions {
            let targets = out.hint_table.get(i.anchor.raw()).unwrap_or_default();
            assert!(targets.contains(&i.target_pc), "{i:?} has no hint");
        }
    }

    #[test]
    fn rewritten_trace_simulates_and_prefetches_fire() {
        let trace = missy_trace();
        let asmdb = Asmdb::new(AsmdbConfig {
            min_misses: 2,
            ..AsmdbConfig::default()
        });
        let out = asmdb.run(&trace, &SimConfig::test_scale());
        let r = Simulator::new(SimConfig::test_scale()).run(&out.rewritten);
        assert!(r.completed, "rewritten trace must simulate to completion");
        assert_eq!(r.prefetch_instructions, out.report.inserted_dynamic);
        assert!(r.frontend.swpf_executed.get() > 0);
    }

    #[test]
    fn no_overhead_hints_fire_on_original_trace() {
        let trace = missy_trace();
        let asmdb = Asmdb::new(AsmdbConfig {
            min_misses: 2,
            ..AsmdbConfig::default()
        });
        let out = asmdb.run(&trace, &SimConfig::test_scale());
        let r = Simulator::new(SimConfig::test_scale())
            .run_with_hint_table(&trace, out.hint_table.clone());
        assert!(r.completed);
        assert_eq!(r.prefetch_instructions, 0, "hints add no instructions");
        assert!(r.frontend.swpf_hinted.get() > 0);
    }

    #[test]
    fn rewritten_trace_keeps_control_flow_continuity() {
        let trace = missy_trace();
        let asmdb = Asmdb::new(AsmdbConfig {
            min_misses: 2,
            ..AsmdbConfig::default()
        });
        let out = asmdb.run(&trace, &SimConfig::test_scale());
        for w in out.rewritten.instructions().windows(2) {
            assert_eq!(w[0].next_pc(), w[1].pc);
        }
    }

    #[test]
    fn min_distance_tracks_ipc() {
        let trace = missy_trace();
        let asmdb = Asmdb::new(AsmdbConfig::default());
        let out = asmdb.run(&trace, &SimConfig::test_scale());
        let cfg = SimConfig::test_scale();
        let expected =
            (out.profile.effective_ipc * cfg.memory.llc_round_trip() as f64).ceil() as u64;
        assert_eq!(out.min_distance, expected.max(8));
    }

    #[test]
    fn quiet_trace_yields_empty_plan() {
        let mut b = TraceBuilder::new("quiet");
        for _ in 0..2000 {
            b.set_pc(Addr::new(0x100));
            b.alu();
            b.cond_branch(Addr::new(0x100), true);
        }
        let trace = b.finish();
        let asmdb = Asmdb::new(AsmdbConfig::default());
        let out = asmdb.run(&trace, &SimConfig::test_scale());
        assert!(
            out.plan.is_empty(),
            "a one-line loop has no misses to cover"
        );
        assert_eq!(out.report.inserted_dynamic, 0);
        assert_eq!(
            out.rewritten.instructions().len(),
            trace.len(),
            "empty plan rewrites to an identical stream"
        );
    }

    #[test]
    fn aggressive_config_inserts_at_least_as_much() {
        let trace = missy_trace();
        let base = Asmdb::new(AsmdbConfig {
            min_misses: 2,
            ..AsmdbConfig::default()
        })
        .run(&trace, &SimConfig::test_scale());
        let aggressive = Asmdb::new(AsmdbConfig {
            min_misses: 2,
            ..AsmdbConfig::aggressive()
        })
        .run(&trace, &SimConfig::test_scale());
        assert!(aggressive.report.inserted_sites >= base.report.inserted_sites);
    }

    #[test]
    fn prefetch_targets_live_in_rewritten_code_space() {
        let trace = missy_trace();
        let asmdb = Asmdb::new(AsmdbConfig {
            min_misses: 2,
            ..AsmdbConfig::default()
        });
        let out = asmdb.run(&trace, &SimConfig::test_scale());
        let code_pcs: std::collections::HashSet<u64> =
            out.rewritten.iter().map(|i| i.pc.line().number()).collect();
        for i in out.rewritten.iter() {
            if let InstrKind::PrefetchI { target } = i.kind() {
                assert!(
                    code_pcs.contains(&target.line().number()),
                    "prefetch target {target} not in rewritten code space"
                );
            }
        }
    }
}
