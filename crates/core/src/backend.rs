//! The out-of-order-lite execution backend.
//!
//! The paper characterizes the *front-end*; the backend only needs to apply
//! realistic consumption pressure: a reorder buffer with bounded dispatch,
//! register dependence tracking, bounded issue/retire width, loads that walk
//! the data-side hierarchy, and branches that resolve at execute (feeding the
//! front-end's redirect machinery). No renaming, speculation, or memory
//! disambiguation is modeled — the trace is the correct path.

use std::collections::VecDeque;

use swip_cache::MemoryHierarchy;
use swip_frontend::DecodedInstr;
use swip_types::{Counter, Cycle, InstrKind, Instruction, Reg, SeqNum};

/// Backend sizing and latencies.
#[derive(Copy, Clone, Debug)]
pub struct BackendConfig {
    /// Reorder-buffer capacity (dispatch stalls when full).
    pub rob_size: usize,
    /// Instructions issued to execution per cycle.
    pub issue_width: usize,
    /// Instructions retired per cycle.
    pub retire_width: usize,
    /// Cycles between dispatch and earliest issue (decode/rename depth;
    /// contributes to the misprediction penalty).
    pub dispatch_latency: u64,
    /// Execution latency of ALU ops, stores, branches and `prefetch.i`.
    pub alu_latency: u64,
}

impl Default for BackendConfig {
    /// Sunny-Cove-like scale: 352-entry ROB, 6-wide issue/retire, 3-cycle
    /// dispatch-to-issue depth.
    fn default() -> Self {
        BackendConfig {
            rob_size: 352,
            issue_width: 6,
            retire_width: 6,
            dispatch_latency: 3,
            alu_latency: 1,
        }
    }
}

impl BackendConfig {
    /// A small backend for fast tests.
    pub fn tiny() -> Self {
        BackendConfig {
            rob_size: 32,
            issue_width: 2,
            retire_width: 2,
            dispatch_latency: 1,
            alu_latency: 1,
        }
    }
}

/// Backend statistics.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct BackendStats {
    /// Instructions retired.
    pub retired: Counter,
    /// Cycles dispatch was blocked by a full ROB.
    pub rob_full_cycles: Counter,
    /// Cycles nothing could issue although the ROB was non-empty.
    pub issue_idle_cycles: Counter,
    /// Loads executed.
    pub loads: Counter,
    /// Branches resolved.
    pub branches_resolved: Counter,
}

/// A branch whose outcome became architecturally known this cycle.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ResolvedBranch {
    /// Trace index of the branch.
    pub seq: SeqNum,
    /// Cycle at which it resolved.
    pub at: Cycle,
}

/// An instruction in the ROB, retired in order once `done`.
#[derive(Clone, Debug)]
struct RobSlot {
    seq: SeqNum,
    instr: Instruction,
    done: bool,
}

/// A dispatched instruction that has not issued: the first cycle its
/// dispatch latency lets it issue, and the registers it reads.
#[derive(Copy, Clone, Debug)]
struct Waiting {
    seq: SeqNum,
    ready_at: Cycle,
    srcs: [Option<Reg>; 3],
}

/// An issued instruction that has not completed.
#[derive(Copy, Clone, Debug)]
struct Executing {
    seq: SeqNum,
    done: Cycle,
}

/// The execution backend: dispatch → issue → complete → retire.
///
/// # Examples
///
/// ```
/// use swip_core::{Backend, BackendConfig};
///
/// let be = Backend::new(BackendConfig::default());
/// assert!(be.free_slots() > 0);
/// assert!(be.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct Backend {
    config: BackendConfig,
    rob: VecDeque<RobSlot>,
    reg_ready: [Cycle; Reg::COUNT],
    stats: BackendStats,
    /// Retired `prefetch.i` instructions.
    prefetches_retired: u64,
    /// Instructions dispatched and not issued, ascending by seq. Dispatch
    /// appends (program order); issue removes. Each record carries what
    /// the issue check reads, so a cycle touches a ROB slot only to issue
    /// it, not to find out whether it can.
    waiting: Vec<Waiting>,
    /// Instructions issued and not complete, ascending by seq (sorted on
    /// insert, since out-of-order issue can start a younger seq before an
    /// older one).
    executing: Vec<Executing>,
}

impl Backend {
    /// Creates a backend from `config`.
    pub fn new(config: BackendConfig) -> Self {
        Backend {
            rob: VecDeque::with_capacity(config.rob_size),
            reg_ready: [0; Reg::COUNT],
            stats: BackendStats::default(),
            prefetches_retired: 0,
            waiting: Vec::with_capacity(config.rob_size),
            executing: Vec::with_capacity(config.rob_size),
            config,
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &BackendStats {
        &self.stats
    }

    /// ROB slots currently free (the front-end's decode budget).
    pub fn free_slots(&self) -> usize {
        self.config.rob_size - self.rob.len()
    }

    /// True when no instructions are in flight.
    pub fn is_empty(&self) -> bool {
        self.rob.is_empty()
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.stats.retired.get()
    }

    /// `prefetch.i` instructions among those retired so far.
    pub(crate) fn prefetches_retired(&self) -> u64 {
        self.prefetches_retired
    }

    /// Dispatches one decoded instruction into the ROB.
    ///
    /// # Panics
    ///
    /// Panics if the ROB is full — callers must respect [`Backend::free_slots`].
    pub fn dispatch(&mut self, decoded: DecodedInstr, instr: Instruction, now: Cycle) {
        assert!(
            self.rob.len() < self.config.rob_size,
            "dispatch into a full rob"
        );
        debug_assert!(
            self.waiting.last().is_none_or(|w| w.seq < decoded.seq),
            "dispatch out of program order"
        );
        self.waiting.push(Waiting {
            seq: decoded.seq,
            ready_at: now + self.config.dispatch_latency,
            srcs: instr.srcs,
        });
        self.rob.push_back(RobSlot {
            seq: decoded.seq,
            instr,
            done: false,
        });
    }

    /// ROB index of the slot holding `seq`.
    ///
    /// The front-end dispatches in program order and the ROB retires in
    /// order, so resident seqs are contiguous and the offset from the
    /// head seq is the index.
    #[inline]
    fn slot_index(&self, seq: SeqNum) -> usize {
        let front = self.rob.front().expect("indexed into an empty rob").seq;
        let idx = (seq - front) as usize;
        debug_assert_eq!(self.rob[idx].seq, seq, "rob seqs are not contiguous");
        idx
    }

    /// Runs one backend cycle: issue ready instructions, complete finished
    /// ones (collecting branch resolutions into `resolutions`, which is
    /// cleared first — pass a reused buffer, not a fresh one, so the
    /// steady-state loop does not allocate per cycle), retire in order.
    pub fn cycle(
        &mut self,
        now: Cycle,
        mem: &mut MemoryHierarchy,
        resolutions: &mut Vec<ResolvedBranch>,
    ) {
        resolutions.clear();

        // Issue: visit the waiting records in program order, so
        // register-ready updates interleave as a whole-ROB scan's would,
        // until the issue width is used up. Unissued records are
        // compacted in place.
        let waiting = self.waiting.len();
        let mut issued = 0;
        let mut kept = 0;
        let mut k = 0;
        while k < waiting && issued < self.config.issue_width {
            let w = self.waiting[k];
            k += 1;
            let ready = now >= w.ready_at
                && w.srcs
                    .iter()
                    .flatten()
                    .all(|r| self.reg_ready[r.index()] <= now);
            if !ready {
                self.waiting[kept] = w;
                kept += 1;
                continue;
            }
            let instr = self.rob[self.slot_index(w.seq)].instr;
            let done = match instr.kind() {
                InstrKind::Load { addr } => {
                    self.stats.loads.incr();
                    mem.access_data(addr.line(), now).complete_at
                }
                InstrKind::Store { addr } => {
                    // Stores commit asynchronously; warm the cache but
                    // complete at ALU latency.
                    mem.access_data(addr.line(), now);
                    now + self.config.alu_latency
                }
                _ => now + self.config.alu_latency,
            };
            if let Some(dst) = instr.dst {
                self.reg_ready[dst.index()] = done;
            }
            let pos = self.executing.partition_point(|e| e.seq < w.seq);
            self.executing.insert(pos, Executing { seq: w.seq, done });
            issued += 1;
        }
        self.waiting.copy_within(k.., kept);
        self.waiting.truncate(kept + waiting - k);
        if issued == 0 && waiting > 0 {
            self.stats.issue_idle_cycles.incr();
        }

        // Complete: visit the executing records in program order, so
        // branch resolutions are reported in program order.
        let mut kept = 0;
        for k in 0..self.executing.len() {
            let e = self.executing[k];
            if e.done > now {
                self.executing[kept] = e;
                kept += 1;
                continue;
            }
            let idx = self.slot_index(e.seq);
            let slot = &mut self.rob[idx];
            slot.done = true;
            if slot.instr.is_branch() {
                self.stats.branches_resolved.incr();
                resolutions.push(ResolvedBranch {
                    seq: e.seq,
                    at: e.done.max(now),
                });
            }
        }
        self.executing.truncate(kept);

        // Retire in order.
        let mut retired = 0;
        while retired < self.config.retire_width {
            match self.rob.front() {
                Some(slot) if slot.done => {
                    if slot.instr.is_prefetch_i() {
                        self.prefetches_retired += 1;
                    }
                    self.rob.pop_front();
                    self.stats.retired.incr();
                    retired += 1;
                }
                _ => break,
            }
        }

        if self.free_slots() == 0 {
            self.stats.rob_full_cycles.incr();
        }
    }

    /// The earliest cycle, at or after `now`, at which [`Backend::cycle`]
    /// would issue, complete or retire an instruction, or `None` when the
    /// ROB is empty. Dispatch is the front-end's to report.
    ///
    /// A waiting instruction can issue once its dispatch latency has
    /// passed and its sources are ready; both are fixed until something
    /// else issues, which is itself an event.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.rob.front()?.done {
            return Some(now);
        }
        let completions = self.executing.iter().map(|e| e.done);
        let issues = self.waiting.iter().map(|w| {
            w.srcs
                .iter()
                .flatten()
                .map(|r| self.reg_ready[r.index()])
                .fold(w.ready_at, Cycle::max)
        });
        let mut next = Cycle::MAX;
        for at in completions.chain(issues) {
            if at <= now {
                return Some(now); // busy: no need to look further
            }
            next = next.min(at);
        }
        Some(next)
    }

    /// Accounts `cycles` cycles in which [`Backend::cycle`] would do
    /// nothing (see [`Backend::next_event`]) as calling it once per cycle
    /// would: they add only to the issue-idle and ROB-full counters.
    pub fn skip_idle(&mut self, cycles: u64) {
        if !self.waiting.is_empty() {
            self.stats.issue_idle_cycles.add(cycles);
        }
        if self.free_slots() == 0 {
            self.stats.rob_full_cycles.add(cycles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swip_cache::HierarchyConfig;
    use swip_types::Addr;

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::tiny())
    }

    fn decoded(seq: SeqNum) -> DecodedInstr {
        DecodedInstr {
            seq,
            mispredicted: false,
        }
    }

    fn drain(
        be: &mut Backend,
        mem: &mut MemoryHierarchy,
        start: Cycle,
    ) -> (Cycle, Vec<ResolvedBranch>) {
        let mut now = start;
        let mut all = Vec::new();
        let mut resolved = Vec::new();
        while !be.is_empty() {
            be.cycle(now, mem, &mut resolved);
            all.extend_from_slice(&resolved);
            now += 1;
            assert!(now < start + 100_000, "backend did not drain");
        }
        (now, all)
    }

    #[test]
    fn retires_in_order() {
        let mut be = Backend::new(BackendConfig::tiny());
        let mut m = mem();
        // A slow load followed by a fast ALU op: the ALU op completes first
        // but must retire second.
        be.dispatch(
            decoded(0),
            Instruction::load(Addr::new(0), Addr::new(0x9000)),
            0,
        );
        be.dispatch(decoded(1), Instruction::alu(Addr::new(4)), 0);
        let (_, _) = drain(&mut be, &mut m, 0);
        assert_eq!(be.retired(), 2);
    }

    #[test]
    fn dependent_chain_serializes() {
        let cfg = BackendConfig::tiny();
        let lat = cfg.alu_latency;
        let mut be = Backend::new(cfg);
        let mut m = mem();
        let r1 = Reg::new(1);
        let r2 = Reg::new(2);
        let r3 = Reg::new(3);
        be.dispatch(decoded(0), Instruction::alu(Addr::new(0)).with_dst(r1), 0);
        be.dispatch(
            decoded(1),
            Instruction::alu(Addr::new(4)).with_srcs(&[r1]).with_dst(r2),
            0,
        );
        be.dispatch(
            decoded(2),
            Instruction::alu(Addr::new(8)).with_srcs(&[r2]).with_dst(r3),
            0,
        );
        let (end, _) = drain(&mut be, &mut m, 0);
        // Three serialized ops cannot finish faster than 3 × latency.
        assert!(end >= 3 * lat);
    }

    #[test]
    fn independent_ops_issue_in_parallel() {
        let mut be = Backend::new(BackendConfig::tiny()); // width 2
        let mut m = mem();
        for s in 0..4u64 {
            be.dispatch(decoded(s), Instruction::alu(Addr::new(s * 4)), 0);
        }
        let (end, _) = drain(&mut be, &mut m, 0);
        // Dispatch latency 1, then 2 cycles of dual issue, +1 to retire tail.
        assert!(end <= 8, "took {end} cycles");
    }

    #[test]
    fn branch_resolution_reported_once() {
        let mut be = Backend::new(BackendConfig::tiny());
        let mut m = mem();
        be.dispatch(
            decoded(0),
            Instruction::cond_branch(Addr::new(0), Addr::new(0x40), true),
            0,
        );
        let (_, resolutions) = drain(&mut be, &mut m, 0);
        assert_eq!(resolutions.len(), 1);
        assert_eq!(resolutions[0].seq, 0);
        assert_eq!(be.stats().branches_resolved.get(), 1);
    }

    #[test]
    fn load_pays_memory_latency() {
        let mut be = Backend::new(BackendConfig::tiny());
        let mut m = mem();
        be.dispatch(
            decoded(0),
            Instruction::load(Addr::new(0), Addr::new(0x9000)),
            0,
        );
        let (end, _) = drain(&mut be, &mut m, 0);
        assert!(end > HierarchyConfig::tiny().dram_latency);
    }

    #[test]
    #[should_panic(expected = "full rob")]
    fn overfull_dispatch_panics() {
        let mut be = Backend::new(BackendConfig::tiny());
        for s in 0..33u64 {
            be.dispatch(decoded(s), Instruction::alu(Addr::new(s * 4)), 0);
        }
    }

    #[test]
    fn free_slots_tracks_occupancy() {
        let mut be = Backend::new(BackendConfig::tiny());
        assert_eq!(be.free_slots(), 32);
        be.dispatch(decoded(0), Instruction::alu(Addr::new(0)), 0);
        assert_eq!(be.free_slots(), 31);
    }
}
