//! One run's machine: the front-end, the memory hierarchy and the backend,
//! built once and advanced a cycle at a time.

use swip_cache::MemoryHierarchy;
use swip_frontend::{
    DecodedInstr, Frontend, InstructionPrefetcher, ManaPrefetcher, ShadowBtbPrefetcher,
};
use swip_trace::Trace;
use swip_types::{Cycle, PrefetcherId};

use crate::{Backend, ResolvedBranch, SimConfig, SimReport};

/// The simulated core for one run of one trace.
///
/// [`Simulator::run`](crate::Simulator::run) alternates
/// [`Machine::skip_idle`] and [`Machine::step`] while the machine is
/// [`running`](Machine::running); a loop that only steps ticks every cycle
/// to the same report (DESIGN.md §13).
pub struct Machine<'t> {
    trace: &'t Trace,
    frontend: Frontend,
    mem: MemoryHierarchy,
    backend: Backend,
    now: Cycle,
    /// The cycle at which the run is cut short, incomplete.
    watchdog: Cycle,
    // Reused across cycles: they are cleared and refilled each cycle, so
    // the steady-state loop performs no per-cycle allocation.
    decoded: Vec<DecodedInstr>,
    resolved: Vec<ResolvedBranch>,
}

impl<'t> Machine<'t> {
    /// Builds the machine that `config` describes, at cycle 0 of `trace`,
    /// with `supplied` in the front-end's prefetcher slot (DESIGN.md §16):
    /// the hint, preload, next-line or entangling mechanism, or any other
    /// [`InstructionPrefetcher`].
    ///
    /// # Panics
    ///
    /// Panics if `supplied` is given while `config.prefetcher` is MANA or
    /// shadow-BTB, whose mechanism it would replace.
    pub fn new(
        config: &SimConfig,
        trace: &'t Trace,
        supplied: Option<Box<dyn InstructionPrefetcher>>,
    ) -> Self {
        let configured = config.prefetcher;
        if supplied.is_some() {
            // The front-end has one prefetcher slot, so a supplied
            // mechanism would silently drop a configured hardware one.
            assert!(
                matches!(configured, PrefetcherId::Fdp | PrefetcherId::Asmdb),
                "a supplied prefetcher would replace the {} prefetcher; supply one only \
                 with the fdp or asmdb prefetcher",
                configured.label()
            );
        }
        // Fdp needs no mechanism (run-ahead is intrinsic to the FTQ) and
        // Asmdb's prefetches arrive via the rewritten trace or a supplied
        // hint prefetcher.
        let prefetcher: Option<Box<dyn InstructionPrefetcher>> = match configured {
            PrefetcherId::Fdp | PrefetcherId::Asmdb => supplied,
            PrefetcherId::Mana => Some(Box::new(ManaPrefetcher::new())),
            PrefetcherId::ShadowBtb => Some(Box::new(ShadowBtbPrefetcher::new())),
        };
        let mut frontend = Frontend::new(config.frontend.clone());
        if let Some(p) = prefetcher {
            frontend.set_prefetcher(p);
        }
        if let Some(timeline) = config.timeline {
            frontend.enable_timeline(timeline);
        }
        let mut mem = MemoryHierarchy::new(config.memory.clone());
        if config.collect_line_profile {
            mem.enable_line_profile();
        }
        Machine {
            trace,
            frontend,
            mem,
            backend: Backend::new(config.backend),
            now: 0,
            watchdog: (trace.len() as u64)
                .saturating_mul(config.max_cycles_per_instr)
                .max(100_000),
            decoded: Vec::with_capacity(config.frontend.decode_width),
            resolved: Vec::new(),
        }
    }

    /// True until the trace has drained through the backend or the
    /// watchdog cycle is reached.
    pub fn running(&self) -> bool {
        self.now < self.watchdog && !(self.frontend.is_done(self.trace) && self.backend.is_empty())
    }

    /// Jumps over the cycles in which neither side would do more than
    /// count them, to the next front-end or backend event, never past the
    /// watchdog cycle. Does nothing when the current cycle has work.
    pub fn skip_idle(&mut self) {
        let now = self.now;
        let front = self
            .frontend
            .next_event(now, self.trace, self.backend.free_slots())
            .unwrap_or(Cycle::MAX);
        if front > now {
            let next = front
                .min(self.backend.next_event(now).unwrap_or(Cycle::MAX))
                .min(self.watchdog);
            if next > now {
                self.frontend.skip_idle(now, next);
                self.backend.skip_idle(next - now);
                self.now = next;
            }
        }
    }

    /// Simulates the current cycle: the front-end's cycle, dispatch of what
    /// it decoded, the backend's cycle, and the branch resolutions fed
    /// back to the front-end.
    pub fn step(&mut self) {
        let now = self.now;
        let instrs = self.trace.instructions();
        self.decoded.clear();
        self.frontend.cycle(
            now,
            self.trace,
            &mut self.mem,
            self.backend.free_slots(),
            &mut self.decoded,
        );
        for d in &self.decoded {
            self.backend.dispatch(*d, instrs[d.seq as usize], now);
        }
        self.backend.cycle(now, &mut self.mem, &mut self.resolved);
        for r in &self.resolved {
            self.frontend
                .handle_resolution(r.seq, &instrs[r.seq as usize], r.at);
        }
        self.now += 1;
    }

    /// The run's report. It is complete only if the trace drained before
    /// the watchdog cycle; a run that drains on that cycle is not.
    pub fn finish(mut self) -> SimReport {
        let now = self.now;
        let completed = now < self.watchdog;

        // I003 (feature `invariants`): every instruction-side MSHR must
        // drain once the run completes — an entry still pending past any
        // plausible memory latency is a leak. Skipped on watchdog abort,
        // where in-flight fetches are legitimately cut short.
        #[cfg(feature = "invariants")]
        if completed {
            let horizon = now + 1_000_000;
            let leaked = self.mem.i_mshrs_in_flight(horizon);
            assert_eq!(
                leaked, 0,
                "I003: {leaked} instruction MSHR entr(ies) never drained"
            );
        }

        let instructions = self.backend.retired();
        let prefetch_instructions = self
            .trace
            .iter()
            .take(instructions as usize)
            .filter(|i| i.is_prefetch_i())
            .count() as u64;
        let useful = instructions - prefetch_instructions;
        let cycles = now.max(1);
        let l1i = *self.mem.l1i_stats();
        let (timeline, timeline_dropped) = match self.frontend.take_timeline() {
            Some(t) => {
                let dropped = t.dropped();
                (t.into_samples(), dropped)
            }
            None => (Vec::new(), 0),
        };
        SimReport {
            workload: self.trace.name().to_string(),
            instructions,
            prefetch_instructions,
            cycles,
            ipc: instructions as f64 / cycles as f64,
            effective_ipc: useful as f64 / cycles as f64,
            l1i_mpki: l1i.demand_mpki(useful),
            branch: *self.frontend.branch_unit().stats(),
            // Moved out, not cloned: the machine is dropped right after
            // report assembly.
            frontend: self.frontend.take_stats(),
            l1i,
            l2: *self.mem.l2_stats(),
            llc: *self.mem.llc_stats(),
            hierarchy: *self.mem.stats(),
            backend: *self.backend.stats(),
            line_misses: self.mem.line_profile(),
            timeline,
            timeline_dropped,
            completed,
        }
    }
}
