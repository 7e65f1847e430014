//! The top-level simulation loop.

use std::sync::Arc;

use swip_cache::MemoryHierarchy;
use swip_frontend::{AsmdbHintPrefetcher, Frontend, HintTable, InstructionPrefetcher};
use swip_trace::Trace;
use swip_types::Cycle;

use crate::{Backend, SimConfig, SimReport};

/// Runs traces through the full front-end + backend pipeline.
///
/// A `Simulator` is a reusable configuration; each [`Simulator::run`] builds
/// fresh microarchitectural state, so runs are independent and repeatable.
///
/// # Examples
///
/// See the crate-level quick start.
#[derive(Clone, Debug)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator from `config`.
    pub fn new(config: SimConfig) -> Self {
        Simulator { config }
    }

    /// The configuration this simulator runs.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Simulates `trace` to completion (or to the cycle watchdog).
    pub fn run(&self, trace: &Trace) -> SimReport {
        self.run_inner(trace, None)
    }

    /// Simulates `trace` with a shared no-overhead hint table (built once
    /// per workload via [`HintTable::from_pc_map`]). The table is shared by
    /// `Arc` — nothing is copied per run. Panics if the configured
    /// prefetcher is MANA or shadow-BTB, which the table would replace.
    pub fn run_with_hint_table(&self, trace: &Trace, hints: Arc<HintTable>) -> SimReport {
        self.run_with_prefetcher(trace, Box::new(AsmdbHintPrefetcher::new(hints)))
    }

    /// Simulates `trace` with `prefetcher` plugged into the front-end's
    /// prefetch seam (DESIGN.md §16): the §VI metadata preloading, the
    /// next-line and entangling hardware prefetchers, or any other
    /// [`InstructionPrefetcher`]. Panics if the configured prefetcher is
    /// MANA or shadow-BTB, which `prefetcher` would replace.
    pub fn run_with_prefetcher(
        &self,
        trace: &Trace,
        prefetcher: Box<dyn InstructionPrefetcher>,
    ) -> SimReport {
        self.run_inner(trace, Some(prefetcher))
    }

    fn run_inner(
        &self,
        trace: &Trace,
        supplied: Option<Box<dyn InstructionPrefetcher>>,
    ) -> SimReport {
        let configured = self.config.prefetcher;
        if supplied.is_some() {
            // The front-end has one prefetcher slot, so a supplied
            // mechanism would silently drop a configured hardware one.
            assert!(
                matches!(
                    configured,
                    swip_types::PrefetcherId::Fdp | swip_types::PrefetcherId::Asmdb
                ),
                "a supplied prefetcher would replace the {} prefetcher; supply one only \
                 with the fdp or asmdb prefetcher",
                configured.label()
            );
        }
        // The hardware mechanisms of the prefetcher zoo (DESIGN.md §16).
        // Fdp needs no mechanism (run-ahead is intrinsic to the FTQ) and
        // Asmdb's prefetches arrive via the rewritten trace or a supplied
        // hint prefetcher.
        let prefetcher: Option<Box<dyn InstructionPrefetcher>> = match configured {
            swip_types::PrefetcherId::Fdp | swip_types::PrefetcherId::Asmdb => supplied,
            swip_types::PrefetcherId::Mana => Some(Box::new(swip_frontend::ManaPrefetcher::new())),
            swip_types::PrefetcherId::ShadowBtb => {
                Some(Box::new(swip_frontend::ShadowBtbPrefetcher::new()))
            }
        };
        let mut frontend = Frontend::new(self.config.frontend.clone());
        if let Some(p) = prefetcher {
            frontend.set_prefetcher(p);
        }
        if let Some(timeline) = self.config.timeline {
            frontend.enable_timeline(timeline);
        }
        let mut mem = MemoryHierarchy::new(self.config.memory.clone());
        if self.config.collect_line_profile {
            mem.enable_line_profile();
        }
        let mut backend = Backend::new(self.config.backend);

        let watchdog = (trace.len() as u64)
            .saturating_mul(self.config.max_cycles_per_instr)
            .max(100_000);
        let mut now = 0u64;
        let mut decoded = Vec::with_capacity(self.config.frontend.decode_width);
        // Reused across cycles: the backend clears and refills it, so the
        // steady-state loop performs no per-cycle allocation.
        let mut resolved = Vec::new();
        let mut completed = true;

        while !(frontend.is_done(trace) && backend.is_empty()) {
            // Jump over the cycles in which neither side would do more
            // than count them (DESIGN.md §13), never past the watchdog.
            let front = frontend
                .next_event(now, trace, backend.free_slots())
                .unwrap_or(Cycle::MAX);
            if front > now {
                let next = front
                    .min(backend.next_event(now).unwrap_or(Cycle::MAX))
                    .min(watchdog);
                if next > now {
                    frontend.skip_idle(now, next);
                    backend.skip_idle(next - now);
                    now = next;
                    if now >= watchdog {
                        completed = false;
                        break;
                    }
                }
            }
            decoded.clear();
            frontend.cycle(now, trace, &mut mem, backend.free_slots(), &mut decoded);
            for d in &decoded {
                backend.dispatch(*d, trace.instructions()[d.seq as usize], now);
            }
            backend.cycle(now, &mut mem, &mut resolved);
            for r in &resolved {
                let instr = &trace.instructions()[r.seq as usize];
                frontend.handle_resolution(r.seq, instr, r.at);
            }
            now += 1;
            if now >= watchdog {
                completed = false;
                break;
            }
        }

        // I003 (feature `invariants`): every instruction-side MSHR must
        // drain once the run completes — an entry still pending past any
        // plausible memory latency is a leak. Skipped on watchdog abort,
        // where in-flight fetches are legitimately cut short.
        #[cfg(feature = "invariants")]
        if completed {
            let horizon = now + 1_000_000;
            let leaked = mem.i_mshrs_in_flight(horizon);
            assert_eq!(
                leaked, 0,
                "I003: {leaked} instruction MSHR entr(ies) never drained"
            );
        }

        let instructions = backend.retired();
        let prefetch_instructions = trace
            .iter()
            .take(instructions as usize)
            .filter(|i| i.is_prefetch_i())
            .count() as u64;
        let useful = instructions - prefetch_instructions;
        let cycles = now.max(1);
        let l1i = *mem.l1i_stats();
        let (timeline, timeline_dropped) = match frontend.take_timeline() {
            Some(t) => {
                let dropped = t.dropped();
                (t.into_samples(), dropped)
            }
            None => (Vec::new(), 0),
        };
        SimReport {
            workload: trace.name().to_string(),
            instructions,
            prefetch_instructions,
            cycles,
            ipc: instructions as f64 / cycles as f64,
            effective_ipc: useful as f64 / cycles as f64,
            l1i_mpki: l1i.demand_mpki(useful),
            branch: *frontend.branch_unit().stats(),
            // Moved out, not cloned: the frontend is dropped right after
            // report assembly.
            frontend: frontend.take_stats(),
            l1i,
            l2: *mem.l2_stats(),
            llc: *mem.llc_stats(),
            hierarchy: *mem.stats(),
            backend: *backend.stats(),
            line_misses: mem.line_profile(),
            timeline,
            timeline_dropped,
            completed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use swip_trace::TraceBuilder;
    use swip_types::{Addr, Reg};

    fn sim() -> Simulator {
        Simulator::new(SimConfig::test_scale())
    }

    fn straight_line(n: usize) -> Trace {
        let mut b = TraceBuilder::new("straight");
        for _ in 0..n {
            b.alu();
        }
        b.finish()
    }

    #[test]
    fn runs_to_completion_and_counts() {
        let trace = straight_line(500);
        let r = sim().run(&trace);
        assert!(r.completed);
        assert_eq!(r.instructions, 500);
        assert_eq!(r.prefetch_instructions, 0);
        assert!(r.ipc > 0.0 && r.ipc <= 6.0);
        assert_eq!(r.ipc, r.effective_ipc);
    }

    #[test]
    fn loop_trace_gets_high_ipc_after_warmup() {
        // One hot line, long run: predictors and caches warm up and the
        // front-end should stream.
        let mut b = TraceBuilder::new("hot-loop");
        for _ in 0..5000 {
            b.set_pc(Addr::new(0x100));
            for _ in 0..6 {
                b.alu();
            }
            b.cond_branch(Addr::new(0x100), true);
        }
        let trace = b.finish();
        let r = sim().run(&trace);
        assert!(r.completed);
        assert!(r.ipc > 1.0, "hot loop IPC too low: {:.3}", r.ipc);
        assert!(r.l1i_mpki < 1.0);
    }

    #[test]
    fn large_footprint_has_high_mpki() {
        // Walk 4 MiB of code: far beyond the tiny L1-I (4 KiB) and LLC.
        let mut b = TraceBuilder::new("bigfoot");
        for rep in 0..2u64 {
            b.set_pc(Addr::new(0x1_0000));
            for _ in 0..(64 * 1024) {
                b.alu();
            }
            let _ = rep;
        }
        let trace = b.finish();
        let r = sim().run(&trace);
        assert!(r.completed);
        assert!(
            r.l1i_mpki > 5.0,
            "expected I-bound workload, MPKI {:.2}",
            r.l1i_mpki
        );
    }

    #[test]
    fn deeper_ftq_helps_ibound_code() {
        // Branchy code over a large footprint: FDP run-ahead should overlap
        // misses, so FTQ=24 beats FTQ=2.
        let mut b = TraceBuilder::new("ibound");
        let funcs = 256u64;
        // Irregular (non-power-of-two) function spacing, like real layouts.
        let base_of = |f: u64| Addr::new(0x10_000 + f * 0x1a8);
        for rep in 0..4096u64 {
            let f = (rep * 37) % funcs;
            b.set_pc(base_of(f));
            for _ in 0..15 {
                b.alu();
            }
            b.jump(base_of((rep + 1) * 37 % funcs));
        }
        let trace = b.finish();
        let deep = Simulator::new(SimConfig::test_scale()).run(&trace);
        let shallow = Simulator::new(SimConfig::test_scale().with_ftq_entries(2)).run(&trace);
        assert!(deep.completed && shallow.completed);
        assert!(
            deep.effective_ipc > shallow.effective_ipc,
            "deep {:.3} vs shallow {:.3}",
            deep.effective_ipc,
            shallow.effective_ipc
        );
    }

    #[test]
    fn prefetch_instructions_excluded_from_effective_ipc() {
        let mut b = TraceBuilder::new("pf");
        for i in 0..100u64 {
            if i % 10 == 0 {
                b.prefetch_i(Addr::new(0x80_000 + i * 64));
            } else {
                b.alu();
            }
        }
        let trace = b.finish();
        let r = sim().run(&trace);
        assert!(r.completed);
        assert_eq!(r.prefetch_instructions, 10);
        assert_eq!(r.useful_instructions(), 90);
        assert!(r.effective_ipc < r.ipc);
    }

    #[test]
    fn hints_prefetch_without_instruction_overhead() {
        // Hint on an early PC targeting a far line used later.
        let far = Addr::new(0x200_000);
        let mut b = TraceBuilder::new("hinted");
        for _ in 0..200 {
            b.alu();
        }
        b.jump(far);
        b.set_pc(far);
        for _ in 0..8 {
            b.alu();
        }
        let trace = b.finish();
        let mut hints = HashMap::new();
        hints.insert(Addr::new(0x10), vec![far]);
        let table = Arc::new(HintTable::from_pc_map(&hints));
        let with_hints = sim().run_with_hint_table(&trace, table);
        assert!(with_hints.completed);
        assert_eq!(with_hints.prefetch_instructions, 0);
        assert!(with_hints.frontend.swpf_hinted.get() >= 1);
    }

    #[test]
    #[should_panic(expected = "a supplied prefetcher would replace the mana prefetcher")]
    fn hint_table_refuses_to_drop_a_hardware_prefetcher() {
        let mut config = SimConfig::test_scale();
        config.prefetcher = swip_types::PrefetcherId::Mana;
        Simulator::new(config).run_with_hint_table(&straight_line(100), Arc::default());
    }

    #[test]
    fn data_dependent_code_is_backend_bound() {
        let mut b = TraceBuilder::new("chain");
        let r1 = Reg::new(1);
        for i in 0..200u64 {
            b.push(
                swip_types::Instruction::load(b.pc(), Addr::new(0x100_000 + i * 4096))
                    .with_srcs(&[r1])
                    .with_dst(r1),
            );
        }
        let trace = b.finish();
        let r = sim().run(&trace);
        assert!(r.completed);
        assert!(
            r.ipc < 0.5,
            "dependent-load chain should crawl, got {:.3}",
            r.ipc
        );
    }

    #[test]
    fn watchdog_marks_incomplete_runs() {
        let mut cfg = SimConfig::test_scale();
        cfg.max_cycles_per_instr = 0; // watchdog fires at the 100k floor
        let mut b = TraceBuilder::new("wd");
        for i in 0..60_000u64 {
            // Serialized DRAM-missing loads: guaranteed to need > 100k cycles.
            b.push(
                swip_types::Instruction::load(b.pc(), Addr::new(0x100_000 + i * 4096))
                    .with_srcs(&[Reg::new(1)])
                    .with_dst(Reg::new(1)),
            );
        }
        let r = Simulator::new(cfg).run(&b.finish());
        assert!(!r.completed);
        assert!(r.instructions < 60_000);
    }

    #[test]
    fn timeline_config_populates_report_samples() {
        let trace = straight_line(2000);
        let mut cfg = SimConfig::test_scale();
        cfg.timeline = Some(swip_frontend::TimelineConfig {
            stride: 8,
            capacity: 128,
        });
        let r = Simulator::new(cfg).run(&trace);
        assert!(r.completed);
        assert!(!r.timeline.is_empty());
        assert!(r.timeline.len() <= 128);
        assert!(r.timeline.iter().all(|s| s.cycle % 8 == 0));
        assert!(
            r.timeline.windows(2).all(|w| w[0].cycle < w[1].cycle),
            "samples must be ordered by cycle"
        );
        // Disabled by default: no samples, no cost.
        let plain = sim().run(&trace);
        assert!(plain.timeline.is_empty());
        assert_eq!(plain.timeline_dropped, 0);
    }

    #[test]
    fn reports_are_independent_across_runs() {
        let trace = straight_line(200);
        let sim = sim();
        let a = sim.run(&trace);
        let b = sim.run(&trace);
        assert_eq!(a.cycles, b.cycles, "runs must not share state");
    }
}
